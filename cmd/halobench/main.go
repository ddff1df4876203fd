// Command halobench regenerates the tables and figures of the HALOTIS
// paper's evaluation section (DATE 2001).
//
// Usage:
//
//	halobench [-exp all|fig1|fig3|fig5|fig6|fig7|table1|table2|power|ddmcurve|bench|scale|partition|serve|cluster|chaos|obs|slo]
//	          [-fast] [-benchruns N] [-benchjson PATH]
//	          [-scaleruns N] [-scalesizes 1000,3000,10000] [-scalejson PATH]
//	          [-partruns N] [-partsizes 100000,250000] [-partcounts 1,2,4,8] [-partfam NAME] [-partjson PATH]
//	          [-serveruns N] [-serveconc 1,2,4,8] [-servejson PATH]
//	          [-chaosdur DUR] [-chaosclients N] [-chaosjson PATH]
//	          [-obsruns N] [-obsjson PATH]
//	          [-sloruns N] [-slojson PATH] [-version]
//
// -fast uses a coarser analog integration step for Table 2 (the shape of
// the comparison — orders of magnitude — is unaffected). -exp bench
// measures the kernel (one-shot, engine-reuse and batch paths); -benchruns
// sets its iteration count and -benchjson also writes the JSON perf record
// (the BENCH_PR*.json trajectory). -exp scale sweeps circuit size across
// the scalable families (adder chains, CSA trees, multipliers, random
// DAGs) under random stimulus and records ns/event scaling curves for DDM
// vs CDM; -scalejson writes them (BENCH_PR2.json). -exp partition sweeps
// partition count against circuit size (-partsizes: 100k and 250k gates by
// default, 2k–40k to calibrate the automatic partitioning floor), checking
// every partitioned configuration bit-identical to the sequential baseline
// before timing it and recording measured plus critical-path-model speedup;
// -partjson writes the record (BENCH_PR7.json). -exp serve stands up an
// in-process halotisd and sweeps concurrent clients against it, recording
// requests/sec, p50/p99 latency and cache hit rate; -servejson writes them
// (BENCH_PR3.json). -exp chaos runs the fault-injection soak: three
// in-process replicas behind a cluster router under a scripted
// kill/slow/blackout schedule, asserting zero divergent reports, bounded
// p99 and that every resilience mechanism (hedging, breakers, failover,
// stale serve, deadline shed) actually fired; -chaosjson writes the record
// (BENCH_PR6.json). -exp obs measures what request tracing and kernel
// profiling cost: identical unique-stimulus sweeps against an in-process
// daemon with tracing off, tracing on, and tracing plus profiling,
// asserting the worst p50 regression stays under 5% and that a traced
// request's span tree is retrievable from GET /v1/traces; -obsjson writes
// the record (BENCH_PR8.json). -exp slo exercises the fleet-health surface:
// identical sweeps with observability disabled vs. enabled bound the
// always-on cost (p50 within 2%), then a fault injector slows every
// simulate past the router's latency SLO and the experiment asserts
// /v1/status flips to firing within one rollup interval and that the
// breaching requests are retrievable from /v1/flightrecorder as pinned
// exemplars with full span trees; -slojson writes the record
// (BENCH_PR10.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"halotis/internal/buildinfo"
	"halotis/internal/cellib"
	"halotis/internal/paper"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig1, fig3, fig5, fig6, fig7, table1, table2, power, ddmcurve, bench, scale, partition, serve, cluster, chaos, obs, slo")
	fast := flag.Bool("fast", false, "coarser analog step for table2")
	benchJSON := flag.String("benchjson", "", "bench: also write the JSON perf record to this path")
	benchRuns := flag.Int("benchruns", 200, "bench: iterations per kernel configuration")
	scaleJSON := flag.String("scalejson", "", "scale: also write the JSON scaling record to this path")
	scaleRuns := flag.Int("scaleruns", 3, "scale: iterations per (family, size, model) point")
	scaleSizes := flag.String("scalesizes", "1000,3000,10000", "scale: comma-separated target gate counts")
	serveJSON := flag.String("servejson", "", "serve: also write the JSON load-test record to this path")
	serveRuns := flag.Int("serveruns", 200, "serve: requests per concurrent client")
	serveConc := flag.String("serveconc", "1,2,4,8", "serve: comma-separated concurrent client counts")
	clusterJSON := flag.String("clusterjson", "", "cluster: also write the JSON sharding record to this path")
	clusterRuns := flag.Int("clusterruns", 600, "cluster: unique requests per sweep")
	clusterClients := flag.Int("clusterclients", 8, "cluster: concurrent clients per sweep")
	clusterReplicas := flag.String("clusterreplicas", "1,3", "cluster: comma-separated replica counts to sweep")
	partJSON := flag.String("partjson", "", "partition: also write the JSON speedup record to this path")
	partRuns := flag.Int("partruns", 2, "partition: timed iterations per (family, size, count) point")
	partSizes := flag.String("partsizes", "100000,250000", "partition: comma-separated target gate counts")
	partCounts := flag.String("partcounts", "1,2,4,8", "partition: comma-separated partition counts (include 1 for the baseline)")
	partFam := flag.String("partfam", "", "partition: restrict to one scalable family (default all)")
	chaosJSON := flag.String("chaosjson", "", "chaos: also write the JSON resilience record to this path")
	chaosDur := flag.Duration("chaosdur", 8*time.Second, "chaos: soak duration")
	chaosClients := flag.Int("chaosclients", 6, "chaos: concurrent clients during the soak")
	obsJSON := flag.String("obsjson", "", "obs: also write the JSON overhead record to this path")
	obsRuns := flag.Int("obsruns", 300, "obs: requests per round and mode")
	sloJSON := flag.String("slojson", "", "slo: also write the JSON fleet-health record to this path")
	sloRuns := flag.Int("sloruns", 300, "slo: requests per round and mode in the overhead phase")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("halobench"))
		return
	}

	lib := cellib.Default06()
	run := func(name string) error {
		switch name {
		case "fig1":
			r, err := paper.Fig1(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "fig3":
			r, err := paper.Fig3(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "fig5":
			r, err := paper.Fig5(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "fig6":
			r, err := paper.Fig6(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "fig7":
			r, err := paper.Fig7(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "table1":
			r, err := paper.Table1(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "table2":
			cfg := paper.Table2Config{}
			if *fast {
				cfg.AnalogDt = 0.005
			}
			r, err := paper.Table2(lib, cfg)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "power":
			r, err := paper.PowerExperiment(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "ddmcurve":
			r, err := paper.DDMCurve(lib)
			if err != nil {
				return err
			}
			fmt.Println(r.Text)
		case "bench":
			text, err := perfExperiment(lib, *benchJSON, *benchRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "scale":
			text, err := scaleExperiment(lib, *scaleJSON, *scaleSizes, *scaleRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "partition":
			text, err := partitionExperiment(lib, *partJSON, *partSizes, *partCounts, *partFam, *partRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "serve":
			text, err := serveExperiment(lib, *serveJSON, *serveConc, *serveRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "cluster":
			text, err := clusterExperiment(lib, *clusterJSON, *clusterReplicas, *clusterRuns, *clusterClients)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "chaos":
			text, err := chaosExperiment(lib, *chaosJSON, *chaosDur, *chaosClients)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "obs":
			text, err := obsExperiment(lib, *obsJSON, *obsRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "slo":
			text, err := sloExperiment(lib, *sloJSON, *sloRuns)
			if err != nil {
				return err
			}
			fmt.Println(text)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig1", "fig3", "fig5", "fig6", "fig7", "table1", "table2", "power", "ddmcurve"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "halobench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}
