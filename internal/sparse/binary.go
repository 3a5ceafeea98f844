package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// binary.go defines the .bcsr on-disk format: the repo's first
// persistent binary interchange outside checkpoints. A matrix is stored
// as a little-endian header plus a sequence of row-panel shards, each
// carrying its own CRC32, so a reader can verify and decode shards
// independently and map them 1:1 onto sched.Pool workers (or dist
// ranks: the panels are exactly the contiguous row ranges the
// partitioner hands out).
//
// Layout (all integers little-endian):
//
//	magic   "BPMFBCSR1\n"                      10 bytes (version 1)
//	header  u64 M, u64 N, u64 NNZ, u64 shards
//	table   shards × (u64 rowLo, u64 rowHi)    contiguous panels covering [0, M)
//	shards  shards × shard, in table order
//
//	shard   u64 nnz, u64 crc32(payload), payload
//	payload (rows+1) × u64 rowPtr              panel-relative, rowPtr[rows] == nnz
//	        nnz × u32 col
//	        nnz × u64 float64-bits val
//
// Per-shard nnz lives with the shard (not the table) so a streaming
// writer never needs to seek; the header NNZ is the post-dedup total.
const bcsrMagic = "BPMFBCSR1\n"

// DefaultShardNNZ is the target number of entries per shard: big enough
// that CRC+decode dominates scheduling overhead, small enough that a
// pool has parallelism to steal (20 shards for the ml-20m nnz).
const DefaultShardNNZ = 1 << 20

// maxBCSRShards caps the declared shard count: legitimate files hold a
// couple of dozen panels (nnz / DefaultShardNNZ), so 16M is far past
// any real file while keeping a hostile header's table claim (and the
// 32-bit byte-offset arithmetic over it) comfortably bounded.
const maxBCSRShards = 1 << 24

// WriteBinary writes a in .bcsr format with DefaultShardNNZ-sized row
// panels. Every write is error-checked so a full disk surfaces here,
// not at load time.
func WriteBinary(w io.Writer, a *CSR) error {
	return WriteBinarySharded(w, a, DefaultShardNNZ)
}

// WriteBinarySharded writes a with row panels targeting shardNNZ
// entries each (a shard always holds at least one full row).
func WriteBinarySharded(w io.Writer, a *CSR, shardNNZ int) error {
	rowNNZ := make([]int64, a.M)
	for r := range rowNNZ {
		rowNNZ[r] = int64(a.RowNNZ(r))
	}
	lo, hi := panelBounds(rowNNZ, shardNNZ)
	bw, err := writeBCSRHead(w, a.M, a.N, int64(a.NNZ()), lo, hi)
	if err != nil {
		return err
	}
	var payload []byte
	for s := range lo {
		payload = encodePanel(payload[:0], a, lo[s], hi[s])
		if err := bw.shard(s, a.RowPtr[hi[s]]-a.RowPtr[lo[s]], payload); err != nil {
			return err
		}
	}
	return bw.flush()
}

// bcsrNNZOffset is the byte offset of the header's NNZ field, which a
// writer that learns the total only after the last shard patches in
// place.
const bcsrNNZOffset = int64(len(bcsrMagic)) + 16

// bcsrWriter emits the .bcsr framing every writer shares: the magic,
// header and shard table (writeBCSRHead), then each shard's nnz, CRC32
// and payload in table order (shard). The first write error sticks.
type bcsrWriter struct {
	bw  *bufio.Writer
	err error
}

func (w *bcsrWriter) u64(v uint64) {
	if w.err == nil {
		_, w.err = w.bw.Write(binary.LittleEndian.AppendUint64(w.bw.AvailableBuffer(), v))
	}
}

// writeBCSRHead starts a .bcsr stream of an m x n matrix with nnz
// entries in the row panels [lo[s], hi[s]).
func writeBCSRHead(w io.Writer, m, n int, nnz int64, lo, hi []int) (*bcsrWriter, error) {
	bw := &bcsrWriter{bw: bufio.NewWriterSize(w, 1<<20)}
	_, bw.err = bw.bw.WriteString(bcsrMagic)
	bw.u64(uint64(m))
	bw.u64(uint64(n))
	bw.u64(uint64(nnz))
	bw.u64(uint64(len(lo)))
	for s := range lo {
		bw.u64(uint64(lo[s]))
		bw.u64(uint64(hi[s]))
	}
	if bw.err != nil {
		return nil, fmt.Errorf("sparse: writing bcsr header: %w", bw.err)
	}
	return bw, nil
}

// shard writes shard s: its entry count, its payload's CRC32, and the
// payload itself.
func (w *bcsrWriter) shard(s int, nnz int64, payload []byte) error {
	w.u64(uint64(nnz))
	w.u64(uint64(crc32.ChecksumIEEE(payload)))
	if w.err == nil {
		_, w.err = w.bw.Write(payload)
	}
	if w.err != nil {
		return fmt.Errorf("sparse: writing bcsr shard %d: %w", s, w.err)
	}
	return nil
}

func (w *bcsrWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("sparse: flushing bcsr: %w", err)
	}
	return nil
}

// encodePanel appends the payload bytes of rows [lo, hi) of a to dst.
func encodePanel(dst []byte, a *CSR, lo, hi int) []byte {
	base := a.RowPtr[lo]
	for r := lo; r <= hi; r++ {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(a.RowPtr[r]-base))
	}
	for _, c := range a.Col[base:a.RowPtr[hi]] {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
	}
	for _, v := range a.Val[base:a.RowPtr[hi]] {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// bcsrLayout is a .bcsr stream's validated header and shard table: the
// dimensions plus the contiguous row panels covering [0, M). Both
// readers — ReadBinary, which decodes a whole stream in order, and
// OpenBinary, which maps a file and decodes shards on demand — parse it
// through readBCSRLayout, check each shard's framing with shardMeta and
// each payload with decodePanel, so the same corruption reads as the
// same error from either.
type bcsrLayout struct {
	m, n, nnz, shards uint64
	lo, hi            []uint64 // per-shard row panel bounds
}

// headerSize returns the byte length of the magic + header + shard
// table region preceding the first shard.
func (l *bcsrLayout) headerSize() int64 {
	return int64(len(bcsrMagic)) + 32 + int64(l.shards)*16
}

// readBCSRLayout reads and validates the magic, header and shard table
// from the front of a .bcsr stream. No header field is trusted for an
// allocation larger than the bytes actually present.
func readBCSRLayout(br io.Reader) (*bcsrLayout, error) {
	magic := make([]byte, len(bcsrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr magic: %w", err)
	}
	if string(magic) != bcsrMagic {
		return nil, fmt.Errorf("sparse: not a bcsr file (magic %q)", magic)
	}
	var err error
	readU64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(br, binary.LittleEndian, &v)
		}
		return v
	}
	m := readU64()
	n := readU64()
	nnz := readU64()
	shards := readU64()
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr header: %w", err)
	}
	if m > maxMMDim || n > maxMMDim {
		return nil, fmt.Errorf("sparse: bcsr dimensions %dx%d out of range [0, %d]", m, n, int64(maxMMDim))
	}
	if shards > maxBCSRShards || (m > 0 && shards == 0) || (m == 0 && shards > 0) {
		return nil, fmt.Errorf("sparse: bcsr claims %d shards for %d rows", shards, m)
	}
	if nnz > math.MaxInt64/16 {
		return nil, fmt.Errorf("sparse: bcsr claims %d entries", nnz)
	}
	// The table is read through the chunked reader so a hostile shard
	// count allocates in proportion to the bytes actually present, not
	// to the claim.
	table, err := readChunked(br, nil, int64(shards)*16)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading bcsr shard table: %w", err)
	}
	lo := make([]uint64, shards)
	hi := make([]uint64, shards)
	for s := range lo {
		lo[s] = binary.LittleEndian.Uint64(table[s*16:])
		hi[s] = binary.LittleEndian.Uint64(table[s*16+8:])
	}
	for s := range lo {
		prev := uint64(0)
		if s > 0 {
			prev = hi[s-1]
		}
		if lo[s] != prev || hi[s] < lo[s] || hi[s] > m {
			return nil, fmt.Errorf("sparse: bcsr shard %d covers rows [%d, %d), want contiguous panels over [0, %d)", s, lo[s], hi[s], m)
		}
	}
	if shards > 0 && hi[shards-1] != m {
		return nil, fmt.Errorf("sparse: bcsr shards cover rows [0, %d) of %d", hi[shards-1], m)
	}
	return &bcsrLayout{m: m, n: n, nnz: nnz, shards: shards, lo: lo, hi: hi}, nil
}

// shardMeta validates one shard's 16-byte header against the layout and
// running entry total, returning the panel's payload byte length.
func (l *bcsrLayout) shardMeta(s int, snnz uint64, total uint64) (payloadLen int64, err error) {
	if snnz > l.nnz-total {
		return 0, fmt.Errorf("sparse: bcsr shard %d claims %d entries, only %d remain of the %d declared", s, snnz, l.nnz-total, l.nnz)
	}
	rows := l.hi[s] - l.lo[s]
	return int64(rows+1)*8 + int64(snnz)*12, nil
}

// ReadBinary reads a .bcsr matrix from the front of r, decoding the
// shards in order — the whole-matrix reader Load uses; OpenBinary is
// the random-access one. Corrupt input — truncated streams, shard CRC
// mismatches, implausible dimensions, non-monotonic row pointers,
// out-of-range columns, non-finite values — is reported as an error
// before it can poison a sampler; no input panics, and no header field
// is trusted for an allocation larger than the bytes actually present
// (reads grow in bounded chunks, and the matrix grows shard by shard).
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	lay, err := readBCSRLayout(br)
	if err != nil {
		return nil, err
	}

	a := &CSR{M: int(lay.m), N: int(lay.n), RowPtr: make([]int64, 1)}
	var payload []byte
	var total uint64
	for s := range lay.lo {
		snnz, scrc, herr := readShardHeader(br)
		if herr != nil {
			return nil, fmt.Errorf("sparse: reading bcsr shard %d header: %w", s, herr)
		}
		want, merr := lay.shardMeta(s, snnz, total)
		if merr != nil {
			return nil, merr
		}
		payload, err = readChunked(br, payload[:0], want)
		if err != nil {
			return nil, fmt.Errorf("sparse: reading bcsr shard %d payload: %w", s, err)
		}
		if verr := verifyShardCRC(s, payload, scrc); verr != nil {
			return nil, verr
		}
		// RowPtr grows only as payload arrives: the header's row count
		// alone buys no allocation.
		a.RowPtr = append(a.RowPtr, make([]int64, lay.hi[s]-lay.lo[s])...)
		if derr := decodePanel(a, payload, int(lay.lo[s]), int(lay.hi[s]), a.N, int64(snnz), int64(total)); derr != nil {
			return nil, fmt.Errorf("sparse: bcsr shard %d: %w", s, derr)
		}
		total += snnz
	}
	if total != lay.nnz {
		return nil, fmt.Errorf("sparse: bcsr header promised %d entries, shards hold %d", lay.nnz, total)
	}
	return a, nil
}

// readShardHeader reads one shard's (nnz, crc) pair.
func readShardHeader(br io.Reader) (snnz, scrc uint64, err error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(hdr[:]), binary.LittleEndian.Uint64(hdr[8:]), nil
}

// verifyShardCRC checks a shard payload against its declared CRC32.
func verifyShardCRC(s int, payload []byte, scrc uint64) error {
	if got := uint64(crc32.ChecksumIEEE(payload)); got != scrc {
		return fmt.Errorf("sparse: bcsr shard %d CRC mismatch (file %08x, computed %08x)", s, scrc, got)
	}
	return nil
}

// readChunked fills dst with want bytes from br, growing in bounded
// chunks so a shard header that promises more data than the stream
// holds over-allocates by at most one chunk before the read error. On a
// short read it returns dst truncated to the bytes actually received —
// callers keep their scratch allocation for retries — together with an
// error that wraps io.ErrUnexpectedEOF and states both byte counts.
func readChunked(br io.Reader, dst []byte, want int64) ([]byte, error) {
	const chunk = 1 << 20
	for int64(len(dst)) < want {
		c := want - int64(len(dst))
		if c > chunk {
			c = chunk
		}
		start := len(dst)
		dst = append(dst, make([]byte, c)...)
		n, err := io.ReadFull(br, dst[start:])
		if err != nil {
			dst = dst[:start+n]
			return dst, shortReadError(want, int64(len(dst)), err)
		}
	}
	return dst, nil
}

// shortReadError normalizes a truncated read into a byte-accurate
// io.ErrUnexpectedEOF wrap: want bytes were promised, got arrived. A
// clean io.EOF after partial progress is still an unexpected EOF for
// the structure being decoded.
func shortReadError(want, got int64, cause error) error {
	if cause == io.EOF && got > 0 {
		cause = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("sparse: short read: want %d bytes, got %d: %w", want, got, cause)
}

// decodePanel holds the structural rules of a shard payload, checked
// against its raw bytes in this order: the panel-relative row pointers
// start at 0, never decrease, stay within [0, snnz] and end at snnz;
// every column lies in [0, n); columns ascend strictly within each row
// (the canonical accumulation order every engine's bit-reproducibility
// rests on); every value is finite. The payload covers global rows
// [lo, hi) and global entries from entryBase, and messages use those
// global indices, so a corruption reads the same whichever reader meets
// it.
//
// With a == nil the payload is only checked — the mapped row accessors
// then index its raw bytes. Otherwise it is decoded as it is checked:
// its entries are appended to a.Col and a.Val and a.RowPtr[lo..hi] is
// filled, so a.RowPtr must already reach index hi.
func decodePanel(a *CSR, payload []byte, lo, hi, n int, snnz, entryBase int64) error {
	le := binary.LittleEndian
	rows := hi - lo
	ptrEnd := int64(rows+1) * 8
	ptr := payload[:ptrEnd]
	cols := payload[ptrEnd : ptrEnd+snnz*4]
	vals := payload[ptrEnd+snnz*4:]
	var outCol []int32
	var outVal []float64
	var outBase int64
	if a != nil {
		outBase = int64(len(a.Col))
		a.Col = append(a.Col, make([]int32, snnz)...)
		a.Val = append(a.Val, make([]float64, snnz)...)
		outCol, outVal = a.Col[outBase:], a.Val[outBase:]
	}
	if first := int64(le.Uint64(ptr)); first != 0 {
		return fmt.Errorf("panel rowPtr starts at %d, want 0", first)
	}
	prev := int64(0)
	for r := 0; r <= rows; r++ {
		p := int64(le.Uint64(ptr[r*8:]))
		if p < prev || p > snnz {
			return fmt.Errorf("panel rowPtr not monotone in [0, %d]: row %d has %d after %d", snnz, r, p, prev)
		}
		prev = p
		if a != nil {
			a.RowPtr[lo+r] = outBase + p
		}
	}
	if prev != snnz {
		return fmt.Errorf("panel rowPtr ends at %d, want %d", prev, snnz)
	}
	// One pass over the columns row by row (which visits every entry,
	// the row pointers being valid); the first ascent violation is held
	// back until no column anywhere is out of range.
	unsorted := -1
	var uc, ub int64
	for r := 0; r < rows; r++ {
		s, e := int64(le.Uint64(ptr[r*8:])), int64(le.Uint64(ptr[(r+1)*8:]))
		before := int64(-1)
		for k := s; k < e; k++ {
			c := int64(le.Uint32(cols[k*4:]))
			if c >= int64(n) {
				return fmt.Errorf("column %d out of range [0, %d)", c, n)
			}
			if c <= before && unsorted < 0 {
				unsorted, uc, ub = r, c, before
			}
			before = c
			if a != nil {
				outCol[k] = int32(c)
			}
		}
	}
	if unsorted >= 0 {
		return fmt.Errorf("row %d columns not strictly ascending (%d after %d)", lo+unsorted, uc, ub)
	}
	for k := int64(0); k < snnz; k++ {
		v := math.Float64frombits(le.Uint64(vals[k*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("entry %d has non-finite value %v", entryBase+k, v)
		}
		if a != nil {
			outVal[k] = v
		}
	}
	return nil
}
