package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"time"

	"halotis"
	"halotis/api"
	"halotis/client"
	"halotis/cluster"
	"halotis/internal/circuits"
	"halotis/internal/service"
)

// op is one Session call of a workload's request stream: the requests it
// carries (one for Run, several for RunBatch), the circuit they target and
// whether the caller opens (uploads) the circuit first.
type op struct {
	circuit int
	open    bool
	reqs    []api.Request
	// keys identifies each request's content: equal keys mean identical
	// requests, so their reference report is computed once.
	keys []uint64
}

// node is one service endpoint whose /metrics and /v1/traces the
// benchmark reads.
type node struct {
	name   string
	router bool
	c      *client.Client
}

// env is one set-up instance of a workload: its circuits, the backends
// and sessions the callers use, and the servers behind them.
type env struct {
	circuits []*halotis.Circuit
	// class names each circuit's kind for the per-circuit metrics.
	class []string
	// backends and sessions are indexed by traced (0 plain, 1 with client
	// tracing); sessions is nil when every op opens its own.
	backends [2]halotis.Backend
	sessions [2][]halotis.Session
	nodes    []node
	// opens are the Backend.Open latencies paid during set-up.
	opens []time.Duration
	op    func(i int) op
	stop  []func()
}

func (e *env) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

// workload is one named traffic mix.
type workload struct {
	name    string
	callers int
	// batch selects RunBatch as the Session call (Run otherwise).
	batch bool
	// classes lists the circuit classes the workload reports on.
	classes []string
	// cycle is the period of the op stream's mix: every phase starts at a
	// multiple of it, so each phase sees the same mix whatever the
	// preceding phase's speed.
	cycle int
	setup func(ctx context.Context, seed uint64, traced bool) (*env, error)
}

var workloads = []*workload{
	{
		name:    "kernel-large",
		callers: 1,
		classes: []string{"random-dag", "csa-tree", "multiplier", "adder-chain"},
		cycle:   len(kernelCircuits) * kernelVariants,
		setup:   setupKernelLarge,
	},
	{
		name:    "daemon-sweep",
		callers: 2,
		classes: []string{"c17", "mult4x4", "mult8x8", "random-1k"},
		cycle:   4,
		setup:   setupDaemonSweep,
	},
	{
		name:    "cluster-churn",
		callers: 2,
		batch:   true,
		classes: []string{"small", "big"},
		cycle:   churnBigEvery,
		setup:   setupClusterChurn,
	},
}

// align rounds an op index up to the start of the next cycle.
func (w *workload) align(i int) int { return (i + w.cycle - 1) / w.cycle * w.cycle }

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// allClasses is every circuit class of every workload, in a fixed order:
// each run reports the per-circuit metrics of all of them (zero for the
// classes its workload does not run).
func allClasses() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.classes...)
	}
	return out
}

// rngFor derives an independent deterministic stream from the seed and a
// stream identifier.
func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
}

// Stimulus timing shared by every workload: vectors start at stimT0 and
// change every stimPeriod ns; the horizon leaves stimTail ns to settle.
const (
	stimT0     = 1.0
	stimPeriod = 5.0
	stimTail   = 10.0
	stimSlew   = 0.2
)

// vectorStimulus drives the inputs with count random vectors: each input
// starts at a random level and, at every vector time t0 + k*period, moves
// to a fresh random bit (an edge only when the bit changes).
func vectorStimulus(inputs []string, count int, t0 float64, rng *rand.Rand) api.Stimulus {
	st := make(api.Stimulus, len(inputs))
	for _, in := range inputs {
		w := api.InputWave{Init: rng.IntN(2) == 1}
		level := w.Init
		for k := 0; k < count; k++ {
			if bit := rng.IntN(2) == 1; bit != level {
				w.Edges = append(w.Edges, api.Edge{T: t0 + float64(k)*stimPeriod, Rising: bit, Slew: stimSlew})
				level = bit
			}
		}
		st[in] = w
	}
	return st
}

func horizon(t0 float64, vectors int) float64 { return t0 + float64(vectors)*stimPeriod + stimTail }

func inputNames(ckt *halotis.Circuit) []string {
	out := make([]string, len(ckt.Inputs))
	for i, n := range ckt.Inputs {
		out[i] = n.Name
	}
	return out
}

// firstOutputs names up to n primary outputs, the nets whose waveforms a
// request asks for.
func firstOutputs(ckt *halotis.Circuit, n int) []string {
	out := make([]string, 0, n)
	for _, o := range ckt.Outputs {
		if len(out) == n {
			break
		}
		out = append(out, o.Name)
	}
	return out
}

// openAll opens every circuit on the backend, recording each Open's
// latency.
func openAll(ctx context.Context, e *env, b halotis.Backend) ([]halotis.Session, error) {
	sessions := make([]halotis.Session, len(e.circuits))
	for i, ckt := range e.circuits {
		t0 := time.Now()
		s, err := b.Open(ctx, ckt)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", ckt.Name, err)
		}
		e.opens = append(e.opens, time.Since(t0))
		sessions[i] = s
	}
	return sessions, nil
}

// warm runs one short request per circuit and per delay model on every
// session, so engine pools, connections and lazy set-up are ready before
// any timed phase.
func warm(ctx context.Context, e *env, sessions []halotis.Session) error {
	for i, s := range sessions {
		for _, model := range []string{"ddm", "cdm"} {
			req := api.Request{
				Model:    model,
				TEnd:     horizon(stimT0, 1),
				Stimulus: vectorStimulus(inputNames(e.circuits[i]), 1, stimT0, rngFor(0, uint64(i))),
			}
			if _, err := s.Run(ctx, req); err != nil {
				return fmt.Errorf("warm %s: %w", e.circuits[i].Name, err)
			}
		}
	}
	return nil
}

// kernelCircuits are the kernel-large circuits: one per scalable family,
// sized so a DDM job takes well under a second on a 2-core host. Circuits
// under 50k gates run the sequential kernel; the 100k-gate random DAG gets
// the automatic partition count.
var kernelCircuits = []struct {
	family  string
	gates   int
	vectors int
}{
	{"random-dag", 100_000, 6},
	{"csa-tree", 40_000, 6},
	{"multiplier", 20_000, 6},
	{"adder-chain", 20_000, 3},
}

// kernelVariants is the number of distinct stimuli per kernel-large
// circuit; the last variant runs CDM, the others DDM.
const kernelVariants = 3

func setupKernelLarge(ctx context.Context, seed uint64, _ bool) (*env, error) {
	lib := halotis.DefaultLibrary()
	e := &env{}
	rng := rngFor(seed, 1)
	for _, kc := range kernelCircuits {
		fam := familyByName(kc.family)
		if fam == nil {
			return nil, fmt.Errorf("unknown circuit family %q", kc.family)
		}
		// The seed moves each size by up to 1%: the circuits differ per
		// seed while their cost stays comparable.
		target := int(math.Round(float64(kc.gates) * (1 + 0.02*(rng.Float64()-0.5))))
		ckt, err := fam.Build(lib, target)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", kc.family, err)
		}
		e.circuits = append(e.circuits, ckt)
		e.class = append(e.class, kc.family)
	}
	local := halotis.NewLocal()
	e.backends = [2]halotis.Backend{local, local}
	sessions, err := openAll(ctx, e, local)
	if err != nil {
		return nil, err
	}
	e.sessions = [2][]halotis.Session{sessions, sessions}
	if err := warm(ctx, e, sessions); err != nil {
		return nil, err
	}

	inputs := make([][]string, len(e.circuits))
	for i, ckt := range e.circuits {
		inputs[i] = inputNames(ckt)
	}
	e.op = func(i int) op {
		c := i % len(kernelCircuits)
		v := (i / len(kernelCircuits)) % kernelVariants
		key := uint64(c*kernelVariants + v)
		vectors := kernelCircuits[c].vectors
		req := api.Request{
			TEnd:     horizon(stimT0, vectors),
			Stimulus: vectorStimulus(inputs[c], vectors, stimT0, rngFor(seed, 100+key)),
		}
		if v == kernelVariants-1 {
			req.Model = "cdm"
		}
		return op{circuit: c, reqs: []api.Request{req}, keys: []uint64{key}}
	}
	return e, nil
}

func familyByName(name string) *halotis.CircuitFamily {
	for _, f := range halotis.ScalableFamilies() {
		if f.Name == name {
			return &f
		}
	}
	return nil
}

// traceCapacity sizes every node's trace ring in traced runs so no traced
// call of the phase is evicted before the benchmark reads it back.
const traceCapacity = 2*maxTracedCalls + 64

// startDaemon serves one in-process halotisd over a real loopback
// listener and registers its shutdown with the env.
func startDaemon(e *env, cfg service.Config, traced bool) *httptest.Server {
	if traced {
		cfg.TraceCapacity = traceCapacity
	}
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	e.stop = append(e.stop, svc.Close, ts.Close)
	return ts
}

// remoteBackends builds the plain and the tracing backend over one base
// URL.
func remoteBackends(base string) [2]halotis.Backend {
	return [2]halotis.Backend{halotis.NewRemote(base), halotis.NewRemote(base, client.WithTracing())}
}

// Request shape of the daemon-sweep and cluster-churn streams.
const (
	smallVectors = 4
	// waveformOutputs is how many outputs each report carries crossings for.
	waveformOutputs = 2
	// repeatShare of daemon-sweep requests repeat an earlier request.
	repeatShare = 0.25
	// repeatWindow bounds how far back (in rounds of all circuits) a
	// repeat reaches, so its original is still in the result cache.
	repeatWindow = 8
)

func setupDaemonSweep(ctx context.Context, seed uint64, traced bool) (*env, error) {
	lib := halotis.DefaultLibrary()
	e := &env{}
	c17, err := halotis.C17(lib)
	if err != nil {
		return nil, err
	}
	m4, err := halotis.Multiplier4x4(lib)
	if err != nil {
		return nil, err
	}
	m8, err := halotis.Multiplier(lib, 8, 8)
	if err != nil {
		return nil, err
	}
	// The seed sets the random DAG's gate count (so its content hash);
	// the generator's own seed stays fixed, so every seed's DAG shares its
	// structure up to the last few gates and costs the same to simulate.
	gates := 990 + rngFor(seed, 1).IntN(21)
	dag, err := circuits.RandomCombinational(lib, circuits.RandomOptions{Inputs: 16, Gates: gates, Seed: 1})
	if err != nil {
		return nil, err
	}
	e.circuits = []*halotis.Circuit{c17, m4, m8, dag}
	e.class = []string{"c17", "mult4x4", "mult8x8", "random-1k"}

	ts := startDaemon(e, service.Config{}, traced)
	e.nodes = []node{{name: "daemon", c: client.New(ts.URL)}}
	e.backends = remoteBackends(ts.URL)
	// The tracing backend's sessions are needed, and opened, only in
	// traced runs.
	backends := 1
	if traced {
		backends = 2
	}
	for t := 0; t < backends; t++ {
		s, err := openAll(ctx, e, e.backends[t])
		if err != nil {
			e.close()
			return nil, err
		}
		e.sessions[t] = s
		if err := warm(ctx, e, s); err != nil {
			e.close()
			return nil, err
		}
	}

	n := len(e.circuits)
	inputs := make([][]string, n)
	outputs := make([][]string, n)
	for i, ckt := range e.circuits {
		inputs[i] = inputNames(ckt)
		outputs[i] = firstOutputs(ckt, waveformOutputs)
	}
	var gen func(i int) op
	gen = func(i int) op {
		rng := rngFor(seed, 1000+uint64(i))
		if i >= n*repeatWindow && rng.Float64() < repeatShare {
			// Same circuit (i mod n is kept), identical request.
			return gen(i - n*(1+rng.IntN(repeatWindow)))
		}
		c := i % n
		// The start offset makes every request of a run unique even where
		// random vectors collide on a small circuit.
		t0 := stimT0 + float64(i%100_000)*1e-5
		req := api.Request{
			TEnd:      horizon(stimT0+1, smallVectors),
			Stimulus:  vectorStimulus(inputs[c], smallVectors, t0, rng),
			Waveforms: outputs[c],
		}
		return op{circuit: c, reqs: []api.Request{req}, keys: []uint64{uint64(i)}}
	}
	e.op = gen
	return e, nil
}

// cluster-churn circuit stream.
const (
	churnSmall    = 48  // distinct small circuits, 200..2000 gates
	churnBig      = 3   // distinct ~20k-gate circuits
	churnBigEvery = 200 // one op in 200 targets a big circuit
	churnBatch    = 4   // jobs per RunBatch
	churnVectors  = 2   // vectors per job
	churnReplicas = 3
	// churnCacheSize bounds each replica's compiled-circuit cache. Each
	// replica is placed about two thirds of the distinct circuits, twice
	// what it can hold, so the pool walk keeps evicting; a small cache also
	// keeps the retained engine pools, and the process, small.
	churnCacheSize = 16
	// churnRevisit of the small-circuit ops return to a circuit one of the
	// last few ops used (still cached); the rest walk the pool, whose
	// circuits come back only after more distinct uploads than a replica's
	// compiled-circuit cache holds.
	churnRevisit = 0.25
)

func setupClusterChurn(ctx context.Context, seed uint64, traced bool) (*env, error) {
	lib := halotis.DefaultLibrary()
	e := &env{}
	rng := rngFor(seed, 1)
	perm := rng.Perm(churnSmall)
	for k := 0; k < churnSmall+churnBig; k++ {
		opt := circuits.RandomOptions{Seed: int64(rng.Uint64() >> 1)}
		class := "small"
		if k < churnSmall {
			// Log-spaced sizes, assigned to pool slots in seeded order.
			opt.Gates = int(math.Round(200 * math.Pow(10, float64(perm[k])/float64(churnSmall-1))))
			opt.Inputs = max(8, opt.Gates/64)
		} else {
			// The few big circuits dominate the tail, so like daemon-sweep's
			// DAG only their gate count is seeded: every seed's big circuits
			// share their structure and cost.
			class = "big"
			opt.Gates = 19_800 + rng.IntN(401)
			opt.Inputs = 312
			opt.Seed = int64(k)
		}
		ckt, err := circuits.RandomCombinational(lib, opt)
		if err != nil {
			return nil, err
		}
		e.circuits = append(e.circuits, ckt)
		e.class = append(e.class, class)
	}

	var addrs, ids []string
	for r := 0; r < churnReplicas; r++ {
		id := fmt.Sprintf("n%d", r+1)
		ts := startDaemon(e, service.Config{ReplicaID: id, CacheSize: churnCacheSize}, traced)
		addrs = append(addrs, ts.URL)
		ids = append(ids, id)
		e.nodes = append(e.nodes, node{name: id, c: client.New(ts.URL)})
	}
	opts := []cluster.Option{cluster.WithReplicaIDs(ids...), cluster.WithReplication(2)}
	if traced {
		opts = append(opts, cluster.WithTraceCapacity(traceCapacity))
	}
	cl, err := cluster.New(addrs, opts...)
	if err != nil {
		e.close()
		return nil, err
	}
	router := httptest.NewServer(cl.Handler())
	e.stop = append(e.stop, func() { _ = cl.Close() }, router.Close)
	e.nodes = append([]node{{name: "router", router: true, c: client.New(router.URL)}}, e.nodes...)
	e.backends = remoteBackends(router.URL)

	// Warm the route end to end (connections, the router's placement and
	// latency state) on a circuit outside the stream.
	c17, err := halotis.C17(lib)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, b := range e.backends {
		s, err := b.Open(ctx, c17)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm open: %w", err)
		}
		reqs := make([]api.Request, churnBatch)
		for j := range reqs {
			reqs[j] = api.Request{TEnd: horizon(stimT0, 1), Stimulus: vectorStimulus(inputNames(c17), 1, stimT0, rngFor(0, uint64(j)))}
		}
		if _, err := s.RunBatch(ctx, reqs); err != nil {
			e.close()
			return nil, fmt.Errorf("warm batch: %w", err)
		}
	}

	inputs := make([][]string, len(e.circuits))
	outputs := make([][]string, len(e.circuits))
	for i, ckt := range e.circuits {
		inputs[i] = inputNames(ckt)
		outputs[i] = firstOutputs(ckt, waveformOutputs)
	}
	var circuitOf func(i int) int
	circuitOf = func(i int) int {
		if i%churnBigEvery == churnBigEvery-1 {
			return churnSmall + (i/churnBigEvery)%churnBig
		}
		rng := rngFor(seed, 2000+uint64(i))
		if i >= churnBigEvery && rng.Float64() < churnRevisit {
			j := i - 1 - rng.IntN(churnBigEvery-2)
			if j%churnBigEvery == churnBigEvery-1 {
				j-- // revisit small circuits only, keeping the big share fixed
			}
			return circuitOf(j)
		}
		return i % churnSmall
	}
	e.op = func(i int) op {
		c := circuitOf(i)
		o := op{circuit: c, open: true}
		for j := 0; j < churnBatch; j++ {
			req := api.Request{
				TEnd:      horizon(stimT0, churnVectors),
				Stimulus:  vectorStimulus(inputs[c], churnVectors, stimT0, rngFor(seed, uint64(i)<<8|uint64(j))),
				Waveforms: outputs[c],
			}
			if j == churnBatch-1 {
				req.Model = "cdm"
			}
			o.reqs = append(o.reqs, req)
			o.keys = append(o.keys, uint64(i)<<8|uint64(j))
		}
		return o
	}
	return e, nil
}
