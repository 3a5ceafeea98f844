package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The collectives unwind cleanly when a peer dies mid-operation (the
// failure detector fails the endpoint, waking every blocked receive) and
// reject malformed peer messages with an error.

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ⌈log₂ P⌉ rounds of pairwise signals).
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	p := c.size
	if p == 1 {
		return nil
	}
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		if err := c.Send(dst, tag, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to all ranks and returns each rank's copy
// (binomial tree).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	tag := c.nextCollTag()
	p := c.size
	if p == 1 {
		return data, nil
	}
	// Re-root the rank space so root behaves as virtual rank 0, then run
	// the standard binomial tree: receive once from (vr − lowest set bit),
	// forward to (vr + mask) for each smaller mask.
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			m, err := c.Recv((vr-mask+root)%p, tag)
			if err != nil {
				return nil, err
			}
			data = m.Data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			if err := c.Send((vr+mask+root)%p, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// Allgather collects every rank's blob; the result slice is indexed by
// rank. Implemented as a ring so each rank sends P-1 messages of its own
// size.
func (c *Comm) Allgather(mine []byte) ([][]byte, error) {
	tag := c.nextCollTag()
	p := c.size
	out := make([][]byte, p)
	out[c.rank] = mine
	if p == 1 {
		return out, nil
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := mine
	curOwner := c.rank
	for step := 0; step < p-1; step++ {
		// Send the block we most recently received, pull a new one from
		// the left (classic allgather ring): at step s that is the block
		// of rank (rank − 1 − s) mod P.
		if err := c.Send(right, tag, appendOwner(cur, curOwner)); err != nil {
			return nil, err
		}
		m, err := c.Recv(left, tag)
		if err != nil {
			return nil, err
		}
		curOwner = (c.rank - 1 - step + 2*p) % p
		if cur, err = splitOwner(m.Data, curOwner); err != nil {
			return nil, err
		}
		out[curOwner] = cur
	}
	return out, nil
}

// appendOwner frames an allgather block with its owner's rank (u32
// little-endian trailer).
func appendOwner(b []byte, owner int) []byte {
	out := make([]byte, len(b)+4)
	copy(out, b)
	binary.LittleEndian.PutUint32(out[len(b):], uint32(owner))
	return out
}

// splitOwner strips appendOwner's trailer, checking it names the rank
// whose block the ring delivers at this step.
func splitOwner(b []byte, want int) ([]byte, error) {
	n := len(b) - 4
	if n < 0 {
		return nil, fmt.Errorf("comm: allgather block of %d bytes has no owner trailer", len(b))
	}
	if owner := binary.LittleEndian.Uint32(b[n:]); owner != uint32(want) {
		return nil, fmt.Errorf("comm: allgather block owned by rank %d, want %d", owner, want)
	}
	return b[:n], nil
}

// AllreduceSumOrdered sums per-rank float64 vectors with a fixed
// reduction order: every rank gathers all partials and adds them in rank
// order, so the result is bit-identical on every rank and independent of
// message timing. This is the deterministic reduction the distributed
// hyperparameter sampling uses (DESIGN.md decision 6).
func (c *Comm) AllreduceSumOrdered(mine []float64) ([]float64, error) {
	blobs, err := c.Allgather(AppendFloat64s(nil, mine))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(mine))
	vals := make([]float64, len(mine))
	for _, b := range blobs {
		if err := DecodeFloat64sInto(vals, b); err != nil {
			return nil, fmt.Errorf("allreduce: %w", err)
		}
		for i, v := range vals {
			out[i] += v
		}
	}
	return out, nil
}

// AllreduceSumTree sums per-rank float64 vectors with recursive doubling:
// ⌈log₂ P⌉ rounds, lower latency than the ordered version but the
// summation tree (and hence the last bits) depends on P. Used where exact
// cross-P reproducibility is not required; the ablation benchmark
// compares both.
func (c *Comm) AllreduceSumTree(mine []float64) ([]float64, error) {
	tag := c.nextCollTag()
	p := c.size
	acc := slices.Clone(mine)
	if p == 1 {
		return acc, nil
	}
	// Recursive doubling for power-of-two counts; fold the remainder into
	// the nearest lower power of two first.
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow
	scratch := make([]float64, len(acc))
	recvAdd := func(src int) error {
		m, err := c.Recv(src, tag)
		if err != nil {
			return err
		}
		if err := DecodeFloat64sInto(scratch, m.Data); err != nil {
			return fmt.Errorf("allreduce: %w", err)
		}
		for i, v := range scratch {
			acc[i] += v
		}
		return nil
	}
	// Extra ranks fold their data into partner (rank − pow) and receive
	// the final result from it afterwards.
	if c.rank >= pow {
		if err := c.Send(c.rank-pow, tag, AppendFloat64s(nil, acc)); err != nil {
			return nil, err
		}
		m, err := c.Recv(c.rank-pow, tag)
		if err != nil {
			return nil, err
		}
		if err := DecodeFloat64sInto(acc, m.Data); err != nil {
			return nil, fmt.Errorf("allreduce: %w", err)
		}
		return acc, nil
	}
	if c.rank < rem {
		if err := recvAdd(c.rank + pow); err != nil {
			return nil, err
		}
	}
	for k := 1; k < pow; k <<= 1 {
		partner := c.rank ^ k
		if err := c.Send(partner, tag, AppendFloat64s(nil, acc)); err != nil {
			return nil, err
		}
		if err := recvAdd(partner); err != nil {
			return nil, err
		}
	}
	if c.rank < rem {
		if err := c.Send(c.rank+pow, tag, AppendFloat64s(nil, acc)); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// AppendFloat64s appends v to b as little-endian IEEE-754 bits, 8 bytes
// per value — the one float64 wire layout of the distributed engine.
func AppendFloat64s(b []byte, v []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(v))[:n+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[n+8*i:], math.Float64bits(x))
	}
	return b
}

// DecodeFloat64sInto fills dst from an AppendFloat64s encoding, which must
// hold exactly len(dst) values.
func DecodeFloat64sInto(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("float64 payload of %d bytes, want %d values (%d bytes)", len(b), len(dst), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
