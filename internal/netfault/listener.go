package netfault

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Listener wraps a net.Listener and arms each accepted connection with
// seeded faults: a reset after a drawn byte budget, or slow-loris reads
// and writes. Fault decisions happen once per conn at accept time so a
// seed replays the same per-conn schedule for the same accept order.
type Listener struct {
	net.Listener
	spec Spec
	inj  *injector

	connResets atomic.Int64
	slowConns  atomic.Int64
}

// WrapListener wraps ln with the server-side faults described by spec.
func WrapListener(ln net.Listener, spec Spec) *Listener {
	spec = spec.withDefaults()
	return &Listener{Listener: ln, spec: spec, inj: newInjector(spec)}
}

// Stats snapshots the listener's fault telemetry.
func (l *Listener) Stats() Stats {
	return Stats{
		ConnResets: l.connResets.Load(),
		SlowConns:  l.slowConns.Load(),
	}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := newFaultConn(c, l.spec, l.inj)
	if fc.resetAfter >= 0 {
		l.connResets.Add(1)
	}
	if fc.slow {
		l.slowConns.Add(1)
	}
	return fc, nil
}

// Conn is a fault-armed connection. It never mutates payload bytes: each
// direction delivers a prefix of what the peer sent — a reset truncates,
// a slow conn only delays.
type Conn struct {
	net.Conn
	spec Spec
	inj  *injector

	// resetAfter is the remaining byte budget (reads + writes combined)
	// before the conn fails both directions; -1 = never.
	mu         sync.Mutex
	resetAfter int64
	reset      bool

	slow bool
}

func newFaultConn(c net.Conn, spec Spec, inj *injector) *Conn {
	fc := &Conn{Conn: c, spec: spec, inj: inj, resetAfter: -1}
	if inj.hit(spec.ConnReset) {
		fc.resetAfter = 1 + inj.draw(int64(spec.ResetBudget))
	}
	if inj.hit(spec.SlowConn) {
		fc.slow = true
	}
	return fc
}

// spend consumes up to n bytes of the reset budget. It returns how many
// bytes may still pass this op and whether the conn was already reset
// before the op started. When the budget runs out mid-op the remaining
// bytes pass (prefix delivery), the conn is marked reset, and finish
// kills it afterwards so both directions observe the failure.
func (c *Conn) spend(n int) (allowed int, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return 0, true
	}
	if c.resetAfter < 0 {
		return n, false
	}
	if int64(n) >= c.resetAfter {
		n = int(c.resetAfter)
		c.resetAfter = 0
		c.reset = true
		return n, n == 0
	}
	c.resetAfter -= int64(n)
	return n, false
}

// finish runs after an op: once the budget is spent it closes the
// underlying conn so a peer blocked on the other direction unblocks.
func (c *Conn) finish(err error, op string) error {
	c.mu.Lock()
	reset := c.reset
	c.mu.Unlock()
	if reset {
		c.Conn.Close()
		if err != nil {
			err = c.errReset(op)
		}
	}
	return err
}

func (c *Conn) errReset(op string) error {
	return fmt.Errorf("%w: %s %s: connection reset by peer", ErrInjected, op, c.RemoteAddr())
}

func (c *Conn) Read(b []byte) (int, error) {
	limit := len(b)
	if c.slow && limit > c.spec.SlowChunk {
		limit = c.spec.SlowChunk
	}
	limit, dead := c.spend(limit)
	if limit == 0 {
		if dead {
			return 0, c.errReset("read")
		}
		return 0, nil
	}
	if c.slow {
		time.Sleep(time.Duration(c.inj.draw(int64(c.spec.SlowDelay))))
	}
	n, err := c.Conn.Read(b[:limit])
	return n, c.finish(err, "read")
}

func (c *Conn) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		chunk := len(b) - written
		if c.slow && chunk > c.spec.SlowChunk {
			chunk = c.spec.SlowChunk
		}
		chunk, dead := c.spend(chunk)
		if chunk == 0 {
			if dead {
				return written, c.errReset("write")
			}
			continue
		}
		if c.slow {
			time.Sleep(time.Duration(c.inj.draw(int64(c.spec.SlowDelay))))
		}
		n, err := c.Conn.Write(b[written : written+chunk])
		written += n
		if err = c.finish(err, "write"); err != nil {
			return written, err
		}
	}
	return written, nil
}
