package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"halotis"
	"halotis/api"
	"halotis/internal/obs"
)

// benchNode is the node name of the benchmark's own span recorder.
const benchNode = "bench"

// maxTracedCalls bounds a traced phase, so every node's trace ring can
// hold all of its traces until the benchmark reads them back.
const maxTracedCalls = 12_000

// jobRec is the checked outcome of one request of a call.
type jobRec struct {
	key    uint64
	digest uint64
	events uint64
	cached bool
}

// callRec is one Session call (plus the Open that preceded it, on
// workloads that open per call).
type callRec struct {
	op      int
	circuit int
	njobs   int
	latency time.Duration
	open    time.Duration
	end     time.Duration // completion, from the phase start
	jobs    []jobRec
	err     error
	// Traced phases only: trace IDs of the call and of its Open, and the
	// reports themselves.
	traceID, openTraceID string
	reports              []*api.Report
}

// phase is one timed closed-loop run of a workload.
type phase struct {
	calls []callRec
	wall  time.Duration // start to the last completion
	cpu   time.Duration
	rss   int64
	// prom holds each node's /metrics delta over the phase.
	prom map[string]map[string]float64
	// nextOp is the first op index the phase did not take.
	nextOp int
}

func (p *phase) jobs() (ok, failed int) {
	for _, c := range p.calls {
		if c.err != nil {
			failed += c.njobs
			continue
		}
		ok += c.njobs
	}
	return ok, failed
}

func (e *env) scrape(ctx context.Context) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(e.nodes))
	for _, n := range e.nodes {
		text, err := n.c.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.name, err)
		}
		out[n.name] = parseProm(text)
	}
	return out, nil
}

// runPhase drives the workload's callers in a closed loop for dur: each
// caller takes the next op of the stream, issues it, waits for the result
// and repeats. firstOp starts a cycle of the stream, and the phase runs on
// past dur to the end of the current cycle, so every phase covers whole
// cycles of the same mix. Traced phases carry a trace per call (and per
// Open), record the benchmark's own spans into rec, profile every kernel
// run and stop after maxTracedCalls calls.
func runPhase(ctx context.Context, w *workload, e *env, firstOp int, dur time.Duration, rec *obs.Recorder) (*phase, error) {
	traced := rec != nil
	before, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	next.Store(int64(firstOp))
	// stopAt is the first op index not to take; set once dur has passed.
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)
	per := make([][]callRec, w.callers)
	cpu0, _ := rusage()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= dur && stopAt.Load() == math.MaxInt64 {
					stopAt.CompareAndSwap(math.MaxInt64, int64(w.align(int(next.Load()))))
				}
				i := int(next.Add(1) - 1)
				if int64(i) >= stopAt.Load() || (traced && i-firstOp >= maxTracedCalls) {
					return
				}
				r := e.exec(ctx, w, i, rec)
				r.end = time.Since(start)
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	cpu1, rss := rusage()
	after, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p := &phase{cpu: cpuSince(cpu0, cpu1), rss: rss, nextOp: int(min(next.Load(), stopAt.Load()))}
	for _, calls := range per {
		p.calls = append(p.calls, calls...)
		for _, c := range calls {
			p.wall = max(p.wall, c.end)
		}
	}
	p.prom = make(map[string]map[string]float64, len(after))
	for name := range after {
		p.prom[name] = promDelta(before[name], after[name])
	}
	return p, nil
}

// traceCtx starts a fresh trace filed into rec (when tracing) and opens
// the benchmark's span around one call.
func traceCtx(ctx context.Context, rec *obs.Recorder, name string) (context.Context, *obs.Span, string) {
	var id string
	if rec != nil {
		id = api.NewTraceID()
		ctx = obs.WithTrace(ctx, rec, id, "")
	}
	ctx, sp := obs.Start(ctx, name)
	return ctx, sp, id
}

// exec issues op i: Open first when the op uploads, then the Session call.
func (e *env) exec(ctx context.Context, w *workload, i int, rec *obs.Recorder) callRec {
	o := e.op(i)
	r := callRec{op: i, circuit: o.circuit, njobs: len(o.reqs)}
	t := 0
	if rec != nil {
		t = 1
		for k := range o.reqs {
			o.reqs[k].Profile = true
		}
	}
	var sess halotis.Session
	if o.open {
		octx, sp, id := traceCtx(ctx, rec, "bench.open")
		t0 := time.Now()
		s, err := e.backends[t].Open(octx, e.circuits[o.circuit])
		r.open = time.Since(t0)
		sp.Fail(err)
		sp.End()
		r.openTraceID = id
		if err != nil {
			r.err = err
			return r
		}
		defer s.Close()
		sess = s
	} else {
		sess = e.sessions[t][o.circuit]
	}

	cctx, sp, id := traceCtx(ctx, rec, "bench.run")
	r.traceID = id
	var reports []*api.Report
	var err error
	t0 := time.Now()
	if w.batch {
		reports, err = sess.RunBatch(cctx, o.reqs)
	} else {
		var rep *api.Report
		if rep, err = sess.Run(cctx, o.reqs[0]); err == nil {
			reports = []*api.Report{rep}
		}
	}
	r.latency = time.Since(t0)
	sp.Fail(err)
	sp.End()
	if err == nil && len(reports) != len(o.reqs) {
		err = fmt.Errorf("op %d: %d reports for %d requests", i, len(reports), len(o.reqs))
	}
	if err != nil {
		r.err = err
		return r
	}
	r.jobs = make([]jobRec, len(reports))
	for k, rep := range reports {
		r.jobs[k] = jobRec{
			key:    o.keys[k],
			digest: digest(rep),
			events: rep.Stats.EventsProcessed,
			cached: rep.Cached,
		}
	}
	if rec != nil {
		r.reports = reports
	}
	return r
}

// verify checks every job of the phases against its reference and returns
// how many jobs were attempted and how many failed (call errors plus
// reports that differ from the reference).
func verify(ctx context.Context, e *env, phases ...*phase) (attempted, failed int, err error) {
	need := make(map[uint64]refJob)
	for _, p := range phases {
		for _, c := range p.calls {
			if c.err != nil {
				continue
			}
			o := e.op(c.op)
			for k, key := range o.keys {
				if _, ok := need[key]; !ok {
					need[key] = refJob{circuit: o.circuit, req: o.reqs[k]}
				}
			}
		}
	}
	refs, err := references(ctx, e.circuits, need, refWorkers())
	if err != nil {
		return 0, 0, err
	}
	for _, p := range phases {
		a, f := checkCalls(p.calls, refs)
		attempted += a
		failed += f
	}
	return attempted, failed, nil
}

// checkCalls counts the jobs of calls and those that failed: every job of
// a failed call, and every report whose digest differs from the reference
// digest of its request.
func checkCalls(calls []callRec, refs map[uint64]uint64) (attempted, failed int) {
	for _, c := range calls {
		attempted += c.njobs
		if c.err != nil {
			failed += c.njobs
			continue
		}
		for _, j := range c.jobs {
			if ref, ok := refs[j.key]; !ok || ref != j.digest {
				failed++
			}
		}
	}
	return attempted, failed
}

func sortCalls(calls []callRec) {
	sort.Slice(calls, func(i, j int) bool { return calls[i].op < calls[j].op })
}
