// Command e2ebench is the repository's end-to-end benchmark: one workload
// of the halotis stack, run for a fixed time in a closed loop against the
// public entry points (a Local session, one daemon, or a router over
// three replicas), with every report checked against a sequential-kernel
// reference. See README.md beside this file.
//
//	e2ebench --workload kernel-large --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it runs untraced and then traced, and reports the per-layer
// metrics. The last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"halotis/internal/obs"
)

// setupReps is how many times a --trace 0 run sets its workload up;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 5

// warmup is the least length of the untimed closed-loop phase run before
// the measured ones. Like them it ends on a cycle boundary, so every kind
// of job has run once, caches have filled and engine buffers have grown
// before any timing starts.
const warmup = 2 * time.Second

// deadline bounds a whole run; past it the process exits non-zero rather
// than hang.
const deadline = 170 * time.Second

func refWorkers() int { return runtime.GOMAXPROCS(0) }

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: kernel-large, daemon-sweep or cluster-churn")
	seed := fs.Int64("seed", 1, "seed every input of the workload is built from")
	seconds := fs.Int("seconds", 10, "length of each timed phase, seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	commit := fs.String("commit", "unknown", "commit of the code under test, recorded in the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := measure(context.Background(), w, uint64(*seed), time.Duration(*seconds)*time.Second, *trace == 1, *commit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the final line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure sets the workload up, runs its timed phases, checks every
// report and returns the result; progress, host facts, per-job event
// counts and the breakdowns go to standard output on the way.
func measure(ctx context.Context, w *workload, seed uint64, dur time.Duration, traced bool, commit string) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1 // set-up time is an end-to-end metric; the traced run skips it
	}
	var setups []float64
	var setupOpens []float64 // each set-up's mean Open latency, ms
	var e *env
	for k := 0; k < reps; k++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(ctx, seed, traced); err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var sum time.Duration
		for _, d := range e.opens {
			sum += d
		}
		setupOpens = append(setupOpens, ratio(float64(sum.Nanoseconds())*msPerNs, float64(len(e.opens))))
	}
	defer e.close()
	fmt.Printf("setup %s: %s s; mean open %s ms\n", w.name, joinFloats(setups, "%.3f"), joinFloats(setupOpens, "%.1f"))

	warm, err := runPhase(ctx, w, e, 0, warmup, nil)
	if err != nil {
		return nil, err
	}
	printPhase(w, e, "warm-up", warm)
	plain, err := runPhase(ctx, w, e, warm.nextOp, dur, nil)
	if err != nil {
		return nil, err
	}
	printPhase(w, e, "untraced", plain)
	phases := []*phase{warm, plain}
	var tr *phase
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(benchNode, traceCapacity)
		if tr, err = runPhase(ctx, w, e, plain.nextOp, dur, rec); err != nil {
			return nil, err
		}
		printPhase(w, e, "traced", tr)
		phases = append(phases, tr)
	}

	attempted, failed, err := verify(ctx, e, phases...)
	if err != nil {
		return nil, err
	}
	printEvents(phases)

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	res.Correct = failed == 0
	var ms []metric
	samples := map[string]int{}
	if traced {
		var ids []string
		for _, c := range tr.calls {
			for _, id := range []string{c.traceID, c.openTraceID} {
				if id != "" {
					ids = append(ids, id)
				}
			}
		}
		spans, err := fetchTraces(ctx, e, rec, ids, refWorkers())
		if err != nil {
			return nil, err
		}
		tools, err := timeTools(e.circuits)
		if err != nil {
			return nil, err
		}
		lr := analyzeLayers(e, plain, tr, spans, tools)
		printPath(lr)
		ms = lr.metrics
		samples = lr.samples
	} else {
		ms, samples = endToEnd(plain, setups, setupOpens)
	}
	printMeta(w, seed, dur, traced, commit, samples, attempted, failed)
	for _, m := range ms {
		fmt.Printf("metric %-36s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// endToEnd derives the untraced run's metrics, and the sample count behind
// each percentile. setupOpens is each set-up's mean Open latency (ms), the
// open metric of workloads that open circuits during set-up only.
func endToEnd(p *phase, setups, setupOpens []float64) ([]metric, map[string]int) {
	var lat, openLat []float64
	var events uint64
	for _, c := range p.calls {
		if c.open > 0 {
			openLat = append(openLat, float64(c.open.Nanoseconds())*msPerNs)
		}
		if c.err != nil {
			continue
		}
		lat = append(lat, float64(c.latency.Nanoseconds())*msPerNs)
		for _, j := range c.jobs {
			if !j.cached {
				events += j.events
			}
		}
	}
	if len(openLat) == 0 {
		openLat = setupOpens
	}
	ok, _ := p.jobs()
	samples := map[string]int{
		"setup":           len(setups),
		"calls":           len(lat),
		"calls_above_p90": beyond(lat, 0.90),
		"calls_above_p99": beyond(lat, 0.99),
		"opens":           len(openLat),
		"jobs":            ok,
	}
	return []metric{
		{"setup_s", "s", percentile(setups, 0.5)},
		{"jobs_per_s", "1/s", ratio(float64(ok), p.wall.Seconds())},
		{"latency_p50_ms", "ms", percentile(lat, 0.5)},
		{"latency_p90_ms", "ms", percentile(lat, 0.90)},
		{"latency_p99_ms", "ms", percentile(lat, 0.99)},
		{"open_p50_ms", "ms", percentile(openLat, 0.5)},
		{"ns_per_event", "ns", ratio(float64(p.wall.Nanoseconds()), float64(events))},
		{"cpu_ms_per_job", "ms", ratio(float64(p.cpu.Nanoseconds())*msPerNs, float64(ok))},
		{"peak_rss_mb", "MB", float64(p.rss) / (1 << 20)},
	}, samples
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func printPhase(w *workload, e *env, label string, p *phase) {
	ok, failed := p.jobs()
	fmt.Printf("phase %s %s: calls=%d jobs=%d failed=%d wall=%.3fs cpu=%.3fs\n",
		w.name, label, len(p.calls), ok, failed, p.wall.Seconds(), p.cpu.Seconds())
	for _, c := range p.calls {
		if c.err != nil {
			fmt.Printf("  op %d failed: %v\n", c.op, c.err)
		}
	}
	for _, n := range e.nodes {
		d := p.prom[n.name]
		if n.router {
			fmt.Printf("  %s: requests(simulate/batch)=%g/%g reuploads=%g failovers=%g hedges=%g\n", n.name,
				d[`halotisd_router_requests_total{endpoint="simulate"}`], d[`halotisd_router_requests_total{endpoint="batch"}`],
				d["halotisd_router_reuploads_total"], d["halotisd_router_failovers_total"], d["halotisd_router_hedges_total"])
			continue
		}
		fmt.Printf("  %s: sim_runs=%g result_cache hits/misses=%g/%g circuit_cache hits/misses=%g/%g evictions=%g compiles=%g\n", n.name,
			d["halotisd_sim_runs_total"], d["halotisd_result_cache_hits_total"], d["halotisd_result_cache_misses_total"],
			d["halotisd_cache_hits_total"], d["halotisd_cache_misses_total"], d["halotisd_cache_evictions_total"],
			d["halotisd_cache_compiles_total"])
	}
}

// printEvents lists every job's simulated event count in op order: for a
// given workload and seed the counts repeat exactly from run to run (the
// phases cover a prefix of the op stream whose length depends on speed).
func printEvents(phases []*phase) {
	var calls []callRec
	for _, p := range phases {
		calls = append(calls, p.calls...)
	}
	sortCalls(calls)
	const perLine = 16
	var b strings.Builder
	n := 0
	for _, c := range calls {
		for _, j := range c.jobs {
			if n%perLine == 0 {
				if n > 0 {
					fmt.Println(b.String())
					b.Reset()
				}
				fmt.Fprintf(&b, "events op %d:", c.op)
			}
			fmt.Fprintf(&b, " %d", j.events)
			n++
		}
	}
	if b.Len() > 0 {
		fmt.Println(b.String())
	}
}

func printPath(lr *layerReport) {
	fmt.Printf("blocking path per call (us):       %12s %12s\n", "p50", "mean")
	var sumP50, sumMean float64
	for _, l := range layers {
		fmt.Printf("  %-32s %12.1f %12.1f\n", l, lr.path[l], lr.pathMean[l])
		sumP50 += lr.path[l]
		sumMean += lr.pathMean[l]
	}
	fmt.Printf("  %-32s %12.1f %12.1f\n", "sum of layers", sumP50, sumMean)
	fmt.Printf("  %-32s %12.1f %12.1f\n", "call latency", lr.callP50, lr.callMean)
	fmt.Printf("  %-32s %12.1f %12.1f\n", "unattributed", lr.unattributed, lr.callMean-sumMean)
}

// hostMeta is the run's host and configuration record.
type hostMeta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Commit     string         `json:"commit"`
	CPU        string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Callers    int            `json:"callers"`
	Attempted  int            `json:"attempted_jobs"`
	Failed     int            `json:"failed_jobs"`
	FailedRate float64        `json:"failed_ratio"`
	Samples    map[string]int `json:"samples"`
}

func printMeta(w *workload, seed uint64, dur time.Duration, traced bool, commit string, samples map[string]int, attempted, failed int) {
	m := hostMeta{
		Workload: w.name, Seed: int64(seed), Seconds: dur.Seconds(), Traced: traced, Commit: commit,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Callers: w.callers, Attempted: attempted, Failed: failed, FailedRate: ratio(float64(failed), float64(attempted)),
		Samples: samples,
	}
	data, _ := json.Marshal(m) // a struct of plain fields always encodes
	fmt.Printf("host %s\n", data)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
