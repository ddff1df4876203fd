package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"halotis"
	"halotis/api"
	"halotis/client"
	"halotis/internal/circ"
	"halotis/internal/netfmt"
	"halotis/internal/obs"
)

// span is one recorded span with its children, as a tree.
type span struct {
	api.SpanInfo
	children []*span
}

func (s *span) start() int64 { return s.StartUnixNs }
func (s *span) end() int64   { return s.StartUnixNs + s.DurationNs }

// buildTree links spans by parent ID and returns the roots (spans whose
// parent is not among them), ordered by start time.
func buildTree(infos []api.SpanInfo) []*span {
	byID := make(map[string]*span, len(infos))
	nodes := make([]*span, len(infos))
	for i, in := range infos {
		nodes[i] = &span{SpanInfo: in}
		byID[in.SpanID] = nodes[i]
	}
	var roots []*span
	for _, n := range nodes {
		if p := byID[n.ParentID]; p != nil && n.ParentID != "" {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.children, func(i, j int) bool { return n.children[i].start() < n.children[j].start() })
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].start() < roots[j].start() })
	return roots
}

// selfTime is the span's duration minus the part of its interval that its
// children cover (overlapping children counted once).
func selfTime(s *span) int64 {
	covered := int64(0)
	cur := s.start()
	for _, c := range s.children { // sorted by start
		lo, hi := max(c.start(), cur), min(c.end(), s.end())
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return s.DurationNs - covered
}

// criticalPath attributes every nanosecond of [lo, hi] within s to exactly
// one span on the blocking path. Walking back from hi, the child that
// ended last is the one s was waiting for: the time after it is s's own,
// the child's interval is attributed recursively, and the walk continues
// from that child's start. Children that ran in parallel with the
// blocking one get nothing. The attributions sum to hi - lo.
func criticalPath(s *span, lo, hi int64, add func(*span, int64)) {
	cursor := hi
	used := make([]bool, len(s.children))
	for cursor > lo {
		pick := -1
		var pickEnd int64
		for i, c := range s.children {
			if used[i] || c.start() >= cursor || c.end() <= lo {
				continue
			}
			if e := min(c.end(), cursor); pick < 0 || e > pickEnd {
				pick, pickEnd = i, e
			}
		}
		if pick < 0 {
			break
		}
		used[pick] = true
		c := s.children[pick]
		add(s, cursor-pickEnd)
		from := max(c.start(), lo)
		criticalPath(c, from, pickEnd, add)
		cursor = from
	}
	add(s, cursor-lo)
}

// layers are the blocking-path categories a call's latency splits into,
// named after the packages that own the spans.
var layers = []string{"halotis", "client", "cluster", "service", "sim", "api"}

// layerOf maps a span to the package whose code it times.
func layerOf(s *span) string {
	switch {
	case strings.HasPrefix(s.Name, "bench."):
		return "halotis" // Session call plus the client's request/response codec
	case s.Name == "client.send" && s.Node == benchNode:
		return "client" // one HTTP attempt: loopback transport, server accept
	case strings.HasPrefix(s.Name, "router."), s.Name == "client.send":
		return "cluster" // the router's own work and its hop to a replica
	case s.Name == "kernel.run":
		return "sim"
	case s.Name == "report.build":
		return "api"
	default:
		return "service" // replica.request, queue.wait, compile, engine.acquire
	}
}

// fetchTraces gathers every span of the given traces: the benchmark's own
// from rec, the rest from each node's GET /v1/traces/{id}.
func fetchTraces(ctx context.Context, e *env, rec *obs.Recorder, ids []string, workers int) (map[string][]api.SpanInfo, error) {
	out := make(map[string][]api.SpanInfo, len(ids))
	for _, id := range ids {
		if tr, ok := rec.Trace(id); ok {
			out[id] = tr.Spans
		}
	}
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range next {
				for _, n := range e.nodes {
					tr, err := n.c.Trace(ctx, id)
					var ae *client.APIError
					if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
						continue // the node took no part in this call
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("trace %s from %s: %w", id, n.name, err)
					}
					if err == nil {
						out[id] = append(out[id], tr.Spans...)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, id := range ids {
		next <- id
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// metric is one named, unit-carrying result value.
type metric struct {
	name  string
	unit  string
	value float64
}

// layerReport is the traced run's analysis: the per-layer metrics and the
// blocking-path breakdown of the median call.
type layerReport struct {
	metrics []metric
	// path is each layer's median blocking-path time per call (µs).
	path map[string]float64
	// pathMean is each layer's mean blocking-path time per call (µs); the
	// means sum exactly to the mean traced call latency.
	pathMean     map[string]float64
	callP50      float64
	callMean     float64
	unattributed float64
	samples      map[string]int
}

const (
	usPerNs = 1e-3
	msPerNs = 1e-6
)

// analyzeLayers derives the per-layer metrics from the traced phase (its
// spans, reports and /metrics deltas), the untraced phase it is compared
// with, and the benchmark's own timings of the parse and compile layers.
func analyzeLayers(e *env, plain, traced *phase, spans map[string][]api.SpanInfo, tools toolTimes) *layerReport {
	lr := &layerReport{path: map[string]float64{}, pathMean: map[string]float64{}, samples: map[string]int{}}
	add := func(name, unit string, v float64) { lr.metrics = append(lr.metrics, metric{name, unit, v}) }

	var (
		sessionOverhead, kernelMs, reportBytes               []float64
		reqSelf, queueWait, acquire, uploadSelf, reportBuild []float64
		routerSelf, clientSelf, callLatency                  []float64
		kernelSpanNs, requestSpanNs                          int64
		routerRequests, routerAttempts                       int
		kernelNs, callNs                                     int64
		filtered, queued, profEvents, stalls, sends          uint64
		imbalanceNum, imbalanceDen                           float64
	)
	classNs := map[string]int64{}
	classEvents := map[string]uint64{}
	classParts := map[string]int{}
	pathSamples := map[string][]float64{}

	for _, c := range traced.calls {
		if c.err != nil {
			continue
		}
		callLatency = append(callLatency, float64(c.latency.Nanoseconds())*usPerNs)
		callNs += c.latency.Nanoseconds()
		var longest int64
		bytes := 0
		for _, rep := range c.reports {
			if data, err := json.Marshal(rep); err == nil {
				bytes += len(data)
			}
			if rep.Cached {
				continue
			}
			longest = max(longest, rep.ElapsedNs)
			kernelMs = append(kernelMs, float64(rep.ElapsedNs)*msPerNs)
			kernelNs += rep.ElapsedNs
			class := e.class[c.circuit]
			classNs[class] += rep.ElapsedNs
			classEvents[class] += rep.Stats.EventsProcessed
			filtered += rep.Stats.EventsFiltered
			queued += rep.Stats.EventsQueued
			if p := rep.Profile; p != nil && len(p.Workers) > 0 {
				classParts[class] = max(classParts[class], p.Partitions)
				var total, most uint64
				for _, wp := range p.Workers {
					total += wp.EventsProcessed
					most = max(most, wp.EventsProcessed)
					stalls += wp.StallWaits
					sends += wp.MailboxSends
				}
				profEvents += total
				imbalanceNum += float64(most) * float64(len(p.Workers))
				imbalanceDen += float64(total)
			}
		}
		sessionOverhead = append(sessionOverhead, float64(c.latency.Nanoseconds()-longest)*usPerNs)
		reportBytes = append(reportBytes, float64(bytes))

		// Blocking-path breakdown of the call.
		byLayer := map[string]int64{}
		if len(e.nodes) == 0 {
			// Local session: no spans inside the library; the kernel's
			// own elapsed time is the only child of the call.
			byLayer["sim"] = longest
			byLayer["halotis"] = c.latency.Nanoseconds() - longest
		} else {
			for _, root := range buildTree(spans[c.traceID]) {
				if root.Name != "bench.run" {
					continue
				}
				criticalPath(root, root.start(), root.end(), func(s *span, ns int64) { byLayer[layerOf(s)] += ns })
			}
		}
		for _, l := range layers {
			pathSamples[l] = append(pathSamples[l], float64(byLayer[l])*usPerNs)
		}
	}

	// Self times and counts from every span of every traced call and Open.
	for _, c := range traced.calls {
		for _, id := range []string{c.traceID, c.openTraceID} {
			if id == "" {
				continue
			}
			var walk func(s *span)
			walk = func(s *span) {
				switch s.Name {
				case "replica.request":
					requestSpanNs += s.DurationNs
					if s.Attrs["path"] == "/v1/circuits" {
						self := s.DurationNs
						for _, ch := range s.children {
							if ch.Name == "queue.wait" {
								self -= ch.DurationNs
							}
						}
						uploadSelf = append(uploadSelf, float64(self)*msPerNs)
					} else {
						reqSelf = append(reqSelf, float64(selfTime(s))*usPerNs)
					}
				case "queue.wait":
					queueWait = append(queueWait, float64(s.DurationNs)*usPerNs)
				case "engine.acquire":
					acquire = append(acquire, float64(s.DurationNs)*usPerNs)
				case "kernel.run":
					kernelSpanNs += s.DurationNs
				case "report.build":
					reportBuild = append(reportBuild, float64(s.DurationNs)*usPerNs)
				case "router.request":
					routerRequests++
					routerSelf = append(routerSelf, float64(selfTime(s))*usPerNs)
				case "router.attempt":
					routerAttempts++
				case "client.send":
					if s.Node == benchNode {
						clientSelf = append(clientSelf, float64(selfTime(s))*usPerNs)
					}
				}
				for _, ch := range s.children {
					walk(ch)
				}
			}
			for _, root := range buildTree(spans[id]) {
				walk(root)
			}
		}
	}

	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	add("halotis.session_overhead_us_p50", "us", p50(sessionOverhead))
	add("sim.kernel_ms_p50", "ms", p50(kernelMs))
	for _, class := range allClasses() {
		add("sim.ns_per_event."+class, "ns", ratio(float64(classNs[class]), float64(classEvents[class])))
	}
	for _, class := range allClasses() {
		add("sim.partitions."+class, "count", float64(classParts[class]))
	}
	add("sim.worker_imbalance", "ratio", ratio(imbalanceNum, imbalanceDen))
	add("sim.profiled_events", "count", float64(profEvents))
	add("sim.stall_waits_per_kevent", "1/kevent", ratio(float64(stalls)*1000, float64(profEvents)))
	add("sim.mailbox_sends_per_kevent", "1/kevent", ratio(float64(sends)*1000, float64(profEvents)))
	add("sim.filtered_ratio", "ratio", ratio(float64(filtered), float64(queued)))
	add("sim.events_queued", "count", float64(queued))
	if len(e.nodes) == 0 {
		add("sim.kernel_share", "ratio", ratio(float64(kernelNs), float64(callNs)))
	} else {
		add("sim.kernel_share", "ratio", ratio(float64(kernelSpanNs), float64(requestSpanNs)))
	}
	add("api.report_build_us_p50", "us", p50(reportBuild))
	add("api.report_bytes_p50", "B", p50(reportBytes))

	add("service.request_self_us_p50", "us", p50(reqSelf))
	add("service.queue_wait_us_p50", "us", p50(queueWait))
	add("service.queue_wait_us_p99", "us", percentile(queueWait, 0.99))
	add("service.engine_acquire_us_p50", "us", p50(acquire))
	add("service.upload_self_ms_p50", "ms", p50(uploadSelf))
	var resHits, resMiss, ccHits, ccMiss, evictions, shed float64
	var replicaJobs []float64
	var reuploads, failovers, hedges float64
	for _, n := range e.nodes {
		d := traced.prom[n.name]
		if n.router {
			reuploads += d["halotisd_router_reuploads_total"]
			failovers += d["halotisd_router_failovers_total"]
			hedges += d["halotisd_router_hedges_total"]
			shed += d["halotisd_router_deadline_shed_total"]
			continue
		}
		resHits += d["halotisd_result_cache_hits_total"]
		resMiss += d["halotisd_result_cache_misses_total"]
		ccHits += d["halotisd_cache_hits_total"]
		ccMiss += d["halotisd_cache_misses_total"]
		evictions += d["halotisd_cache_evictions_total"]
		shed += d["halotisd_deadline_shed_total"] + d["halotisd_queue_rejected_total"] + d["halotisd_queue_expired_total"]
		replicaJobs = append(replicaJobs, d["halotisd_sim_runs_total"]+d["halotisd_result_cache_hits_total"])
	}
	add("service.result_cache_hit_ratio", "ratio", ratio(resHits, resHits+resMiss))
	add("service.result_cache_lookups", "count", resHits+resMiss)
	add("service.circuit_cache_hit_ratio", "ratio", ratio(ccHits, ccHits+ccMiss))
	add("service.circuit_cache_lookups", "count", ccHits+ccMiss)
	add("service.circuit_cache_evictions", "count", evictions)
	add("service.shed", "count", shed)

	add("cluster.request_self_us_p50", "us", p50(routerSelf))
	add("cluster.attempts_per_call", "ratio", ratio(float64(routerAttempts), float64(routerRequests)))
	add("cluster.calls", "count", float64(routerRequests))
	add("cluster.reuploads", "count", reuploads)
	add("cluster.failovers", "count", failovers)
	add("cluster.hedges", "count", hedges)
	var jobsTotal, jobsMax float64
	if e.nodes != nil && e.nodes[0].router {
		for _, j := range replicaJobs {
			jobsTotal += j
			jobsMax = max(jobsMax, j)
		}
	}
	add("cluster.replica_share_max", "ratio", ratio(jobsMax, jobsTotal))
	add("cluster.replica_jobs", "count", jobsTotal)

	add("client.send_self_us_p50", "us", p50(clientSelf))

	add("netfmt.parse_us_per_kgate", "us", tools.parseUsPerKgate)
	add("circ.compile_us_per_kgate", "us", tools.compileUsPerKgate)
	add("circ.partition_ms", "ms", tools.partitionMs)

	plainOK, _ := plain.jobs()
	tracedOK, _ := traced.jobs()
	plainRate := ratio(float64(plainOK), plain.wall.Seconds())
	tracedRate := ratio(float64(tracedOK), traced.wall.Seconds())
	add("obs.tracing_overhead_pct", "%", 100*ratio(plainRate-tracedRate, plainRate))

	var sum float64
	for _, l := range layers {
		lr.path[l] = p50(pathSamples[l])
		var mean float64
		for _, v := range pathSamples[l] {
			mean += v
		}
		lr.pathMean[l] = ratio(mean, float64(len(pathSamples[l])))
		sum += lr.path[l]
		add("path."+l+"_us_p50", "us", lr.path[l])
	}
	lr.callP50 = p50(callLatency)
	lr.callMean = ratio(float64(callNs)*usPerNs, float64(len(callLatency)))
	lr.unattributed = lr.callP50 - sum
	add("path.call_us_p50", "us", lr.callP50)
	add("path.unattributed_us", "us", lr.unattributed)

	lr.samples = map[string]int{
		"calls":          len(callLatency),
		"kernel_runs":    len(kernelMs),
		"queue_waits":    len(queueWait),
		"queue_wait_p99": beyond(queueWait, 0.99),
		"uploads":        len(uploadSelf),
		"report_builds":  len(reportBuild),
		"router_calls":   routerRequests,
		"client_sends":   len(clientSelf),
		"engine_acquire": len(acquire),
	}
	return lr
}

// toolTimes are the benchmark's own timings of the netlist parser, the
// compiler and the partitioner on the workload's circuits.
type toolTimes struct {
	parseUsPerKgate, compileUsPerKgate, partitionMs float64
}

// timeTools serializes each circuit, then times parsing it back, compiling
// the parsed circuit, and partitioning the largest one in two (fresh
// circuits, so nothing memoized is reused).
func timeTools(circuits []*halotis.Circuit) (toolTimes, error) {
	lib := halotis.DefaultLibrary()
	var parse, compile time.Duration
	gates := 0
	var largest *circ.Compiled
	for _, ckt := range circuits {
		var text strings.Builder
		if err := netfmt.WriteCircuit(&text, ckt); err != nil {
			return toolTimes{}, err
		}
		t0 := time.Now()
		parsed, err := netfmt.ParseCircuit(strings.NewReader(text.String()), lib)
		parse += time.Since(t0)
		if err != nil {
			return toolTimes{}, fmt.Errorf("parse %s: %w", ckt.Name, err)
		}
		t0 = time.Now()
		ir := circ.Compile(parsed)
		compile += time.Since(t0)
		gates += ir.NumGates()
		if largest == nil || ir.NumGates() > largest.NumGates() {
			largest = ir
		}
	}
	t0 := time.Now()
	largest.Partition(2)
	part := time.Since(t0)
	kgates := float64(gates) / 1000
	return toolTimes{
		parseUsPerKgate:   float64(parse.Nanoseconds()) * usPerNs / kgates,
		compileUsPerKgate: float64(compile.Nanoseconds()) * usPerNs / kgates,
		partitionMs:       float64(part.Nanoseconds()) * msPerNs,
	}, nil
}
