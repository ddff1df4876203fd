package api

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"

	"halotis/internal/sim"
)

// TraceHeader carries a request's trace identity across hops, next to the
// deadline budget in BudgetHeader: "<trace-id>-<span-id>", where span-id is
// the sender's current span (the parent of whatever the receiver starts).
// Like the budget, tracing is an optimization layer, not a correctness
// gate: a malformed header is ignored, an absent one means the request is
// simply not traced and costs nothing beyond one header lookup.
const TraceHeader = "Halotis-Trace"

// NewTraceID returns a fresh 16-hex-digit trace identity. IDs are random,
// not sequential, so independently traced clients never collide in a
// shared recorder.
func NewTraceID() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// NewSpanID returns a fresh 8-hex-digit span identity, unique enough
// within one trace.
func NewSpanID() string { return fmt.Sprintf("%08x", rand.Uint32()) }

// StampTrace writes the trace identity into h. Empty IDs stamp nothing.
func StampTrace(h http.Header, traceID, spanID string) {
	if traceID == "" {
		return
	}
	if spanID == "" {
		spanID = "0"
	}
	h.Set(TraceHeader, traceID+"-"+spanID)
}

// TraceFrom reads the propagated trace identity from h. ok is false when
// the header is absent or malformed (the request is then served untraced
// rather than rejected).
func TraceFrom(h http.Header) (traceID, parentSpanID string, ok bool) {
	v := h.Get(TraceHeader)
	if v == "" {
		return "", "", false
	}
	i := strings.LastIndexByte(v, '-')
	if i <= 0 || i == len(v)-1 {
		return "", "", false
	}
	return v[:i], v[i+1:], true
}

// SpanInfo is one recorded span of a trace: a named phase of a request's
// execution on one node, with its parent link, wall-clock bounds and
// optional attributes. The span tree of one trace reconstructs where a
// request's latency went — queue, compile, kernel, failover attempts.
type SpanInfo struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Node identifies the recorder that produced the span (replica ID or
	// router identity), so spans merged across nodes stay attributable.
	Node        string `json:"node,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
	// Attrs carries span-scoped key/values (target replica, cache
	// hit/miss, event counts).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Error is the failure message of a span that ended in error.
	Error string `json:"error,omitempty"`
}

// TraceResponse is the body of GET /v1/traces/{id}: every span this node
// recorded for the trace, in end order. Each node serves its own spans;
// a cross-node view joins the responses on trace_id.
type TraceResponse struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanInfo `json:"spans"`
}

// TraceSummary is one entry of GET /v1/traces: enough to pick a trace
// worth fetching in full.
type TraceSummary struct {
	TraceID string `json:"trace_id"`
	// Root names the first-started span of the trace on this node.
	Root        string `json:"root"`
	Spans       int    `json:"spans"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurationNs  int64  `json:"duration_ns"`
}

// WorkerProfile is one partition worker's counters from a profiled kernel
// run (sequential runs report one worker).
type WorkerProfile struct {
	Partition       int    `json:"partition"`
	EventsProcessed uint64 `json:"events_processed"`
	// StallWaits counts backoff waits while the partition's horizon was
	// blocked on an upstream partition — the partitioned kernel's idle
	// time, in units of waits rather than wall clock.
	StallWaits uint64 `json:"stall_waits,omitempty"`
	// MailboxSends counts boundary messages this worker sent downstream.
	MailboxSends uint64 `json:"mailbox_sends,omitempty"`
	// MailboxHighWater is the deepest any of this worker's inbound
	// mailboxes grew between drains.
	MailboxHighWater int `json:"mailbox_high_water,omitempty"`
}

// KernelProfile is the opt-in per-run kernel execution profile
// (Request.Profile): which partition did the work and where the
// partitioned kernel stalled. Requests that do not ask for it pay
// nothing — the kernel's zero-allocation steady state is preserved.
type KernelProfile struct {
	// Partitions is the partition count the run executed with. Under
	// automatic partitioning it depends on the node's kernel load when the
	// run started, so like ElapsedNs it varies between identical requests.
	Partitions int             `json:"partitions"`
	Workers    []WorkerProfile `json:"workers"`
}

// ProfileOf converts the kernel's profile to the wire form (nil for nil).
func ProfileOf(p *sim.Profile) *KernelProfile {
	if p == nil {
		return nil
	}
	kp := &KernelProfile{Partitions: p.Partitions, Workers: make([]WorkerProfile, len(p.Workers))}
	for i, w := range p.Workers {
		kp.Workers[i] = WorkerProfile{
			Partition:        w.Partition,
			EventsProcessed:  w.EventsProcessed,
			StallWaits:       w.StallWaits,
			MailboxSends:     w.MailboxSends,
			MailboxHighWater: w.MailboxHighWater,
		}
	}
	return kp
}
