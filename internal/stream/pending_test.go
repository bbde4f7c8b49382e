package stream

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/events"
	"repro/internal/privacy"
)

// pendingPart is a schema-9 generation carrying only a planner cursor: the
// head's streams and the pending section, every other section empty.
func pendingPart(streams []streamSnap, pending []byte) *snapParts {
	return &snapParts{schema: snapSchemaVersion,
		head: &snapHead{Config: snapConfig{EpochDays: 1}, Streams: streams},
		sec:  [numSections][]byte{secPending: pending}}
}

// TestPendingFoldExhaustive enumerates every sequence of up to six steps
// over two query streams — add a conversion to a stream, add conversions
// until it fires, capture a delta, compact the chain into a base (written
// out and parsed back as compaction writes it), or crash
// and restore from the chain, replaying the conversions added since the
// last capture — from a run whose chain starts with an empty planner's
// base. At every capture, the chain's fold restored into a fresh planner
// must hold the live planner's seq, capped flag and pending conversions for
// every stream; a restore must rebuild the planner it replaced. Streams
// fire at B = 2 and cap after two queries. B = 2 leaves a captured stream
// no room to gain a conversion without firing, so the walk runs again at
// B = 3, where a delta's run appends to runs the chain already holds.
func TestPendingFoldExhaustive(t *testing.T) {
	maxSteps := 6
	if testing.Short() {
		maxSteps = 5
	}
	products := []events.Sym{events.Intern("product-0"), events.Intern("product-1")}
	site := events.Intern("nike.example")
	for _, batch := range []int{2, 3} {
		meta := dataset.Meta{Advertisers: []dataset.Advertiser{{Site: site, Products: products,
			MaxValue: 10, AvgReportValue: 1, BatchSize: batch}}}
		fresh := func() *planner { return newPlanner(meta, privacy.Calibration{}, 1, 2) }

		type state struct {
			live  *planner
			chain []*snapParts
			wal   []events.Event // conversions added since the last capture
			id    int
		}
		clone := func(s state) state {
			p := fresh()
			p.dirty = maps.Clone(s.live.dirty)
			for k, st := range s.live.streams {
				c := *st
				if st.pending != nil {
					c.pending = append(make([]events.Event, 0, cap(st.pending)), st.pending...)
				}
				p.streams[k] = &c
			}
			return state{live: p, chain: slices.Clip(s.chain), wal: slices.Clip(s.wal), id: s.id}
		}
		var path []string
		label := func() string { return fmt.Sprintf("B=%d %v", batch, path) }
		folded := func(chain []*snapParts) *planner {
			c, err := foldParts(chain)
			if err != nil {
				t.Fatalf("%s: fold: %v", label(), err)
			}
			p := fresh()
			if err := p.restore(c); err != nil {
				t.Fatalf("%s: restore: %v", label(), err)
			}
			return p
		}
		same := func(got, want *planner) {
			if len(got.streams) != len(want.streams) {
				t.Fatalf("%s: %d streams, live %d", label(), len(got.streams), len(want.streams))
			}
			for k, w := range want.streams {
				g := got.streams[k]
				if g == nil || g.seq != w.seq || g.capped != w.capped || g.epsilon != w.epsilon || !slices.Equal(g.pending, w.pending) {
					t.Fatalf("%s: stream %s: got %+v, live %+v", label(), k.product, g, w)
				}
			}
		}
		add := func(s *state, i int) bool {
			s.id++
			ev := conv(events.EventID(s.id), events.DeviceID(1+s.id%3), s.id)
			ev.Product = products[i]
			s.wal = append(s.wal, ev)
			return s.live.add(ev) != nil
		}

		steps := []string{"add0", "add1", "fire0", "fire1", "capture", "compact", "restore"}
		captures := 0
		var walk func(s state)
		walk = func(s state) {
			if len(path) == maxSteps {
				return
			}
			for _, step := range steps {
				n := clone(s)
				path = append(path, step)
				switch step {
				case "add0", "add1":
					add(&n, int(step[3]-'0'))
				case "fire0", "fire1":
					for i := 0; i < batch && !add(&n, int(step[4]-'0')); i++ {
					}
				case "capture":
					streams, runs := n.live.capture(n.live.drainDirty(), true)
					n.chain = append(n.chain, pendingPart(streams, n.live.appendRuns(nil, runs)))
					n.wal = n.wal[:0:0]
					same(folded(n.chain), n.live)
					captures++
				case "compact":
					c, err := foldParts(n.chain)
					if err != nil {
						t.Fatalf("%s: fold: %v", label(), err)
					}
					base, err := c.encode()
					if err != nil {
						t.Fatalf("%s: compaction: %v", label(), err)
					}
					parts, err := parsePayload(base)
					if err != nil {
						t.Fatalf("%s: compacted base: %v", label(), err)
					}
					n.chain = []*snapParts{parts}
				case "restore":
					p := folded(n.chain)
					p.trackDirty()
					for _, ev := range n.wal {
						p.add(ev)
					}
					same(p, n.live)
					n.live = p
				}
				walk(n)
				path = path[:len(path)-1]
			}
		}
		s := state{live: fresh()}
		streams, runs := s.live.capture(s.live.sortedKeys(), false)
		s.chain = []*snapParts{pendingPart(streams, s.live.appendRuns(nil, runs))}
		s.live.trackDirty()
		walk(s)
		t.Logf("B=%d: %d captures checked", batch, captures)
	}
}
