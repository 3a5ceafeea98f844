package dist

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// TestMalformedPeerMessagesError injects one malformed message per case
// on the ghost tag or a collective's tag, from a fake rank 1, and
// expects rank 0's node to return an error — never to panic or hang.
func TestMalformedPeerMessagesError(t *testing.T) {
	prob := problem(t, 5)
	cfg := testConfig()
	opt := Options{Ranks: 2}
	plan, test := BuildPlan(prob, opt)
	ghostTag := itemTag(0, core.SideV)
	ghost := func(idx uint32) []byte {
		return comm.AppendFloat64s(binary.LittleEndian.AppendUint32(nil, idx), make([]float64, cfg.K))
	}
	recvGhost := func(nd *Node) error { return nd.recvGhosts(ghostTag, 1, nd.v) }
	cases := []struct {
		name string
		op   func(nd *Node) error
		fake func(c *comm.Comm)
	}{
		{
			name: "ghost row outside the matrix",
			op:   recvGhost,
			fake: func(c *comm.Comm) { c.Send(0, ghostTag, ghost(1<<31)) },
		},
		{
			name: "ghost message with a trailing partial record",
			op:   recvGhost,
			fake: func(c *comm.Comm) { c.Send(0, ghostTag, append(ghost(0), 1, 2, 3)) },
		},
		{
			name: "gathered factor rows of the wrong length",
			op:   func(nd *Node) error { return nd.gatherSide(nd.u, nd.plan.RowBounds) },
			fake: func(c *comm.Comm) { c.Allgather(comm.AppendFloat64s(nil, []float64{1})) },
		},
		{
			name: "interval records with a trailing partial record",
			op:   func(nd *Node) error { _, err := nd.gatherIntervals(); return err },
			fake: func(c *comm.Comm) { c.Allgather(make([]byte, 8*intervalRecLen+1)) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := comm.NewFabric(2)
			defer fab.Close()
			nd, err := NewNode(fab.Comms()[0], cfg, plan, test, opt)
			if err != nil {
				t.Fatal(err)
			}
			go tc.fake(fab.Comms()[1])
			done := make(chan error, 1)
			go func() { done <- tc.op(nd) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("malformed message accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("rank hung on a malformed message")
			}
		})
	}
}
