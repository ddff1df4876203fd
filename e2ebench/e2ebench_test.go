package main

import (
	"context"
	"math"
	"reflect"
	"syscall"
	"testing"
	"time"

	"halotis"
	"halotis/api"
	"halotis/internal/obs"
)

// streamOf sets a workload up and returns its first n ops and the content
// hashes of its circuits.
func streamOf(t *testing.T, w *workload, seed uint64, n int) ([]op, []string) {
	t.Helper()
	e, err := w.setup(context.Background(), seed, false)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	defer e.close()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = e.op(i)
	}
	hashes := make([]string, len(e.circuits))
	for i, ckt := range e.circuits {
		hashes[i] = halotis.Compile(ckt).Hash
	}
	return ops, hashes
}

func TestSeedDeterminesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's circuits")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ops1, hashes1 := streamOf(t, w, 7, 40)
			ops2, hashes2 := streamOf(t, w, 7, 40)
			if !reflect.DeepEqual(ops1, ops2) {
				t.Error("same seed, different request streams")
			}
			if !reflect.DeepEqual(hashes1, hashes2) {
				t.Error("same seed, different circuit hashes")
			}
			ops3, hashes3 := streamOf(t, w, 8, 40)
			if reflect.DeepEqual(ops1, ops3) {
				t.Error("different seeds, same request stream")
			}
			if reflect.DeepEqual(hashes1, hashes3) {
				t.Error("different seeds, same circuit hashes")
			}
		})
	}
}

func TestDaemonSweepRepeatsAQuarter(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon")
	}
	ops, _ := streamOf(t, workloadByName("daemon-sweep"), 3, 4000)
	seen := map[uint64]bool{}
	repeats := 0
	for _, o := range ops {
		if seen[o.keys[0]] {
			repeats++
		}
		seen[o.keys[0]] = true
	}
	if share := float64(repeats) / float64(len(ops)); share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.99, 4.96},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := beyond(xs, 0.5); got != 2 {
		t.Errorf("beyond(p50) = %d, want 2", got)
	}
}

func TestRusageArithmetic(t *testing.T) {
	tv := syscall.Timeval{Sec: 2, Usec: 500_000}
	if got := tvDuration(tv); got != 2500*time.Millisecond {
		t.Errorf("tvDuration = %v, want 2.5s", got)
	}
	a := cpuTime{user: time.Second, sys: 200 * time.Millisecond}
	b := cpuTime{user: 3 * time.Second, sys: 700 * time.Millisecond}
	if got := cpuSince(a, b); got != 2500*time.Millisecond {
		t.Errorf("cpuSince = %v, want 2.5s", got)
	}
	// The process's own counters move forward while it computes.
	c0, rss := rusage()
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	c1, _ := rusage()
	if cpuSince(c0, c1) <= 0 || x == 0 {
		t.Errorf("no CPU time accounted for a busy loop")
	}
	if rss <= 0 {
		t.Errorf("peak RSS %d, want > 0", rss)
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm("# HELP x\nhalotisd_cache_hits_total 3\nhalotisd_requests_total{endpoint=\"simulate\"} 10\n")
	after := parseProm("halotisd_cache_hits_total 8\nhalotisd_requests_total{endpoint=\"simulate\"} 25\nhalotisd_new_total 1e3\n")
	d := promDelta(before, after)
	want := map[string]float64{
		"halotisd_cache_hits_total":                    5,
		`halotisd_requests_total{endpoint="simulate"}`: 15,
		"halotisd_new_total":                           1000,
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("delta = %v, want %v", d, want)
	}
}

// sp builds a span of [start, start+dur) under parent.
func sp(id, parent, name string, start, dur int64) api.SpanInfo {
	return api.SpanInfo{SpanID: id, ParentID: parent, Name: name, Node: benchNode, StartUnixNs: start, DurationNs: dur}
}

func TestSelfTime(t *testing.T) {
	// Children [10,30) and [20,50) overlap: together they cover [10,50).
	roots := buildTree([]api.SpanInfo{
		sp("r", "", "bench.run", 0, 100),
		sp("a", "r", "client.send", 10, 20),
		sp("b", "r", "client.send", 20, 30),
		sp("c", "b", "replica.request", 25, 10),
	})
	if len(roots) != 1 {
		t.Fatalf("%d roots, want 1", len(roots))
	}
	r := roots[0]
	if got := selfTime(r); got != 60 {
		t.Errorf("root self time %d, want 60", got)
	}
	if got := selfTime(r.children[1]); got != 20 {
		t.Errorf("child self time %d, want 20", got)
	}
}

func TestCriticalPathSumsToDuration(t *testing.T) {
	// Two parallel kernel runs under one request: the later-ending one
	// blocks; the earlier one is hidden behind it except where it alone
	// ran.
	roots := buildTree([]api.SpanInfo{
		sp("r", "", "bench.run", 0, 100),
		sp("s", "r", "client.send", 5, 90),
		{SpanID: "q", ParentID: "s", Name: "replica.request", StartUnixNs: 10, DurationNs: 80},
		{SpanID: "k1", ParentID: "q", Name: "kernel.run", StartUnixNs: 20, DurationNs: 30},
		{SpanID: "k2", ParentID: "q", Name: "kernel.run", StartUnixNs: 30, DurationNs: 40},
		{SpanID: "b", ParentID: "q", Name: "report.build", StartUnixNs: 72, DurationNs: 8},
	})
	r := roots[0]
	got := map[string]int64{}
	criticalPath(r, r.start(), r.end(), func(s *span, ns int64) { got[layerOf(s)] += ns })
	want := map[string]int64{
		"halotis": 10, // [0,5) and [95,100)
		"client":  10, // [5,10) and [90,95)
		"service": 22, // [10,20), [70,72) and [80,90)
		"sim":     50, // k1 [20,30), then k2 [30,70)
		"api":     8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("critical path %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != r.DurationNs {
		t.Errorf("attributions sum to %d, want the call's %d", sum, r.DurationNs)
	}
}

func TestCorruptedReportFails(t *testing.T) {
	lib := halotis.DefaultLibrary()
	ckt, err := halotis.C17(lib)
	if err != nil {
		t.Fatal(err)
	}
	req := api.Request{
		TEnd:      horizon(stimT0, 4),
		Stimulus:  vectorStimulus(inputNames(ckt), 4, stimT0, rngFor(1, 1)),
		Waveforms: firstOutputs(ckt, 2),
	}
	ctx := context.Background()
	refs, err := references(ctx, []*halotis.Circuit{ckt}, map[uint64]refJob{1: {circuit: 0, req: req}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := halotis.NewLocal().Open(ctx, ckt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	good := jobRec{key: 1, digest: digest(rep)}

	corrupt := *rep
	corrupt.Stats.EventsProcessed++
	badStats := jobRec{key: 1, digest: digest(&corrupt)}

	// Shift one waveform crossing by a femtosecond.
	corrupt = *rep
	corrupt.Waveforms = map[string]api.Waveform{}
	shifted := false
	for name, w := range rep.Waveforms {
		cs := append([]api.Crossing(nil), w.Crossings...)
		if len(cs) > 0 && !shifted {
			cs[0].T += 1e-6
			shifted = true
		}
		corrupt.Waveforms[name] = api.Waveform{Init: w.Init, Crossings: cs}
	}
	if !shifted {
		t.Fatal("reference run produced no waveform crossings to corrupt")
	}
	badWave := jobRec{key: 1, digest: digest(&corrupt)}

	calls := []callRec{
		{njobs: 1, jobs: []jobRec{good}},
		{njobs: 2, jobs: []jobRec{good, badStats}},
		{njobs: 1, jobs: []jobRec{badWave}},
		{njobs: 3, err: context.DeadlineExceeded},
	}
	attempted, failed := checkCalls(calls, refs)
	if attempted != 7 || failed != 5 {
		t.Errorf("attempted %d failed %d, want 7 and 5", attempted, failed)
	}
}

func TestDaemonSweepPhasesCheckAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon under load")
	}
	ctx := context.Background()
	w := workloadByName("daemon-sweep")
	e, err := w.setup(ctx, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	plain, err := runPhase(ctx, w, e, 0, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.nextOp%w.cycle != 0 {
		t.Errorf("phase ended at op %d, not a cycle boundary", plain.nextOp)
	}
	rec := obs.NewRecorder(benchNode, traceCapacity)
	tr, err := runPhase(ctx, w, e, plain.nextOp, 300*time.Millisecond, rec)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, err := verify(ctx, e, plain, tr)
	if err != nil {
		t.Fatal(err)
	}
	if attempted == 0 || failed != 0 {
		t.Fatalf("attempted %d failed %d", attempted, failed)
	}
	var ids []string
	for _, c := range tr.calls {
		ids = append(ids, c.traceID)
	}
	spans, err := fetchTraces(ctx, e, rec, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	lr := analyzeLayers(e, plain, tr, spans, toolTimes{})
	var sum float64
	for _, l := range layers {
		sum += lr.pathMean[l]
	}
	// Per call the layers split the benchmark's span exactly; the span
	// brackets the measured call, so the means agree to within timer noise.
	if math.Abs(sum-lr.callMean) > 0.02*lr.callMean {
		t.Errorf("layer means sum to %.1fus, mean call is %.1fus", sum, lr.callMean)
	}
	if lr.path["service"] <= 0 || lr.path["client"] <= 0 {
		t.Errorf("no service or client time on the blocking path: %v", lr.path)
	}
}
