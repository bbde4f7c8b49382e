// Package netfault is the serving path's network-fault injection seam,
// mirroring internal/checkpoint's errfs for the wire (DESIGN.md §14): a
// seeded, deterministic layer that manufactures the failures millions of
// real devices would generate — connection resets, dial timeouts,
// responses dropped after the server processed the request (the classic
// ack-lost case), duplicated sends, slow-loris reads and writes, and
// injected latency.
//
// It wraps the two ends of an HTTP exchange:
//
//   - Transport wraps an http.RoundTripper on the client side. Its faults
//     model the client's view of a flaky network: a request that never
//     reaches the server (dial error), a request delivered twice
//     (duplicate send), and — the case idempotent admission exists for —
//     a request the server fully processed whose acknowledgement is lost
//     (response drop).
//   - Listener wraps a net.Listener on the server side. Its faults model
//     hostile or degraded connections: resets after a seeded byte budget
//     and slow-loris connections that trickle bytes through tiny reads
//     and writes.
//
// Fault placement draws from a SplitMix64 stream seeded by Spec.Seed with
// an optional total budget, exactly like errfs: which operation faults
// depends on operation order, but the retry/dedupe protocol must tolerate
// every placement — that is the point. The layer never corrupts payload
// bytes: a connection delivers a prefix of what the peer sent (resets
// truncate, slow conns delay) and a transport delivers whole requests
// zero, one, or two times. FuzzNetFaultConn holds the conn wrapper to
// that contract.
package netfault

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected is the sentinel every injected fault error wraps, so a
// client's retry discipline (and a test) can tell manufactured failures
// from real ones with errors.Is.
var ErrInjected = errors.New("netfault: injected fault")

// Spec configures one fault layer. Each rate is the per-operation
// probability of injecting that fault, drawn from the seeded stream.
type Spec struct {
	// Seed drives the fault generator; equal seeds and equal operation
	// sequences inject the same faults.
	Seed uint64
	// MaxFaults caps the total number of injected faults (0 = unlimited).
	// Convergence loops use it to guarantee a run eventually completes:
	// once the budget is spent the network behaves perfectly.
	MaxFaults int

	// Client-side rates (Transport).

	// DialError is the probability that a request fails before reaching
	// the server — a dial timeout or a reset during connect. The server
	// never sees the request.
	DialError float64
	// ResponseDrop is the probability that a fully processed exchange
	// loses its response: the server handled the request and sent its
	// acknowledgement, but the client sees a connection reset. The classic
	// lost-ack regime — an at-least-once client must retry, and the
	// server's dedupe must absorb the redelivery.
	ResponseDrop float64
	// DuplicateSend is the probability that a request is delivered twice
	// back to back — a retrying middlebox. The client sees the second
	// response; the first delivery is a manufactured duplicate.
	DuplicateSend float64
	// SendLatency is the probability of injecting latency before a send.
	SendLatency float64
	// MaxLatency bounds one injected latency pause (0 = 2ms).
	MaxLatency time.Duration

	// Server-side rates (Listener), decided once per accepted conn.

	// ConnReset is the probability that a connection is armed to reset:
	// after a seeded byte budget it fails both directions, as if the peer
	// vanished mid-exchange.
	ConnReset float64
	// ResetBudget bounds the bytes a reset-armed connection carries before
	// failing (0 = 4096). The budget is drawn per conn, so resets land
	// everywhere from mid-headers to mid-response.
	ResetBudget int
	// SlowConn is the probability that a connection is slow-loris: every
	// read and write moves at most SlowChunk bytes and pauses up to
	// SlowDelay first.
	SlowConn float64
	// SlowChunk bounds bytes per op on a slow conn (0 = 64).
	SlowChunk int
	// SlowDelay bounds the per-op pause on a slow conn (0 = 1ms).
	SlowDelay time.Duration
}

func (s Spec) withDefaults() Spec {
	if s.MaxLatency == 0 {
		s.MaxLatency = 2 * time.Millisecond
	}
	if s.ResetBudget == 0 {
		s.ResetBudget = 4096
	}
	if s.SlowChunk == 0 {
		s.SlowChunk = 64
	}
	if s.SlowDelay == 0 {
		s.SlowDelay = time.Millisecond
	}
	return s
}

// Stats is a point-in-time snapshot of one fault layer's telemetry. The
// convergence property uses it to account for every duplicate the layer
// manufactured.
type Stats struct {
	// Delivered counts HTTP exchanges the server fully processed —
	// including those whose response was then dropped or superseded by a
	// duplicate. Transport only.
	Delivered int64
	// DialErrors counts requests failed before delivery.
	DialErrors int64
	// ResponseDrops counts delivered exchanges whose response was dropped.
	ResponseDrops int64
	// DuplicateSends counts manufactured extra deliveries.
	DuplicateSends int64
	// Latencies counts injected latency pauses.
	Latencies int64
	// ConnResets and SlowConns count connections armed with each server-
	// side fault. Listener only.
	ConnResets int64
	SlowConns  int64
}

// injector is the seeded fault die, shared by a layer's operations. It
// mirrors errfs: a SplitMix64 stream plus a total budget.
type injector struct {
	mu     sync.Mutex
	rng    uint64
	budget int // remaining faults; -1 = unlimited
}

func newInjector(spec Spec) *injector {
	b := -1
	if spec.MaxFaults > 0 {
		b = spec.MaxFaults
	}
	return &injector{rng: spec.Seed, budget: b}
}

// next advances the SplitMix64 stream. Caller holds i.mu.
func (i *injector) next() uint64 {
	i.rng += 0x9e3779b97f4a7c15
	z := i.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hit rolls the fault die for probability p, respecting the budget.
func (i *injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.budget == 0 {
		return false
	}
	if float64(i.next()>>11)/(1<<53) >= p {
		return false
	}
	if i.budget > 0 {
		i.budget--
	}
	return true
}

// draw returns a seeded value in [0, n).
func (i *injector) draw(n int64) int64 {
	if n <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return int64(i.next() % uint64(n))
}
