package dist

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
)

// interval wire format: 5 float64 per entry (row, col, actual, mean, std).
const intervalRecLen = 5

func encodeIntervals(ivs []core.Interval) []byte {
	v := make([]float64, 0, intervalRecLen*len(ivs))
	for _, iv := range ivs {
		v = append(v, float64(iv.Row), float64(iv.Col), iv.Actual, iv.Mean, iv.Std)
	}
	return comm.AppendFloat64s(nil, v)
}

func decodeIntervals(b []byte) ([]core.Interval, error) {
	if len(b)%(8*intervalRecLen) != 0 {
		return nil, fmt.Errorf("interval payload of %d bytes is not a whole number of %d-byte records", len(b), 8*intervalRecLen)
	}
	v := make([]float64, len(b)/8)
	if err := comm.DecodeFloat64sInto(v, b); err != nil {
		return nil, err
	}
	out := make([]core.Interval, len(v)/intervalRecLen)
	for t := range out {
		r := v[t*intervalRecLen:]
		out[t] = core.Interval{
			Row: int32(r[0]), Col: int32(r[1]),
			Actual: r[2], Mean: r[3], Std: r[4],
		}
	}
	return out, nil
}
