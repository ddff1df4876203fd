package sim_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"halotis/internal/cellib"
	"halotis/internal/circuits"
	"halotis/internal/netlist"
	"halotis/internal/sim"
	"halotis/internal/stimuli"
)

// TestAutoPartitionsTable pins the automatic worker-count choice over
// circuit size, core count and busy kernel workers.
func TestAutoPartitionsTable(t *testing.T) {
	cases := []struct {
		gates, procs, busy, want int
	}{
		{500, 8, 0, 1},     // far below the floor
		{3_999, 8, 0, 1},   // just below: one partition's worth of gates
		{4_000, 8, 0, 2},   // the floor: two partitions of 2k gates
		{4_000, 1, 0, 1},   // one core
		{20_000, 2, 0, 2},  // core-bound
		{20_000, 2, 1, 1},  // another run holds one of two cores
		{20_000, 2, 2, 1},  // every core busy: still one worker
		{20_000, 2, 5, 1},  // oversubscribed by explicit counts
		{20_000, 8, 3, 5},  // the idle cores
		{20_000, 16, 0, 8}, // autoPartitionMax
		{11_000, 16, 0, 5}, // size-bound: 2k+ gates per partition
		{100_000, 2, 0, 2},
		{100_000, 4, 0, 4},
		{100_000, 64, 60, 4},
	}
	for _, c := range cases {
		if got := sim.AutoPartitions(c.gates, c.procs, c.busy); got != c.want {
			t.Errorf("AutoPartitions(gates=%d, procs=%d, busy=%d) = %d, want %d",
				c.gates, c.procs, c.busy, got, c.want)
		}
	}
}

// aboveFloorWorkload is a 5k-gate random DAG, large enough that the
// automatic policy partitions it on an idle two-core process.
func aboveFloorWorkload(t *testing.T) (*netlist.Circuit, sim.Stimulus, float64) {
	t.Helper()
	ckt, err := circuits.RandomCombinational(cellib.Default06(), circuits.RandomOptions{Inputs: 64, Gates: 5_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stimuli.RandomStimulusFor(ckt, 4, 4.0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ckt, st, 20.0
}

// holdBusyRun starts a sequential run on another engine and parks it on
// its first event, so one kernel worker stays claimed until the returned
// release function is called (which waits for the run to finish).
func holdBusyRun(t *testing.T) (release func()) {
	t.Helper()
	ckt, st, tEnd := aboveFloorWorkload(t)
	eng := sim.NewEngine(ckt, sim.Options{Partitions: 1})
	started, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	eng.SetFireHook(func(int32, float64) {
		once.Do(func() {
			close(started)
			<-unblock
		})
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(st, tEnd)
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("busy run ended without firing an event: %v", err)
	}
	return func() {
		close(unblock)
		if err := <-done; err != nil {
			t.Errorf("busy run: %v", err)
		}
	}
}

// TestAutoPartitionLoadIdentity runs one above-floor request on an idle
// two-core process (K=2) and again beside a busy run (K=1), on the same
// engine, and requires bit-identical stats, outputs and crossings: the
// load-dependent choice changes only how the run executes.
func TestAutoPartitionLoadIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ckt, st, tEnd := aboveFloorWorkload(t)
	eng := sim.NewEngine(ckt, sim.Options{Profile: true})

	res, err := eng.Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Partitions != 2 {
		t.Fatalf("idle run used %d partitions, want 2", res.Profile.Partitions)
	}
	if res.Stats.EventsProcessed == 0 {
		t.Fatal("degenerate workload, nothing simulated")
	}
	alone := res.Detach()

	release := holdBusyRun(t)
	if got := sim.BusyKernelWorkers(); got != 1 {
		t.Errorf("busy workers while one sequential run is parked = %d, want 1", got)
	}
	res, err = eng.Run(st, tEnd)
	release()
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Partitions != 1 {
		t.Fatalf("run beside a busy run used %d partitions, want 1", res.Profile.Partitions)
	}

	if res.Stats != alone.Stats {
		t.Fatalf("stats differ:\n alone  %+v\n beside %+v", alone.Stats, res.Stats)
	}
	if a, b := fmt.Sprint(alone.OutputLogic(tEnd, 2.5)), fmt.Sprint(res.OutputLogic(tEnd, 2.5)); a != b {
		t.Fatalf("outputs differ:\n alone  %s\n beside %s", a, b)
	}
	for _, n := range ckt.Nets {
		at, bt := alone.Waveform(n.Name).Transitions(), res.Waveform(n.Name).Transitions()
		if len(at) != len(bt) {
			t.Fatalf("net %s: %d transitions alone, %d beside a busy run", n.Name, len(at), len(bt))
		}
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("net %s transition %d differs:\n alone  %v\n beside %v", n.Name, i, &at[i], &bt[i])
			}
		}
	}
}

// TestKernelWorkersReleased checks every run returns its claimed workers,
// whichever way it ends and whichever kernel ran it.
func TestKernelWorkersReleased(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ckt, st, tEnd := aboveFloorWorkload(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parts := range []int{0, 1, 2} {
		cases := []struct {
			name    string
			opt     sim.Options
			ctx     context.Context
			st      sim.Stimulus
			wantErr error
		}{
			{"success", sim.Options{}, nil, st, nil},
			{"ctx-cancel", sim.Options{}, canceled, st, context.Canceled},
			{"event-limit", sim.Options{MaxEvents: 100}, nil, st, nil},
			{"validation", sim.Options{}, nil, sim.Stimulus{"no-such-input": {}}, nil},
		}
		for _, c := range cases {
			c.opt.Partitions = parts
			_, err := sim.NewEngine(ckt, c.opt).RunContext(c.ctx, c.st, tEnd)
			switch {
			case c.name == "success" && err != nil:
				t.Errorf("P=%d %s: %v", parts, c.name, err)
			case c.name != "success" && err == nil:
				t.Errorf("P=%d %s: run succeeded, want an error", parts, c.name)
			case c.wantErr != nil && !errors.Is(err, c.wantErr):
				t.Errorf("P=%d %s: error %v does not wrap %v", parts, c.name, err, c.wantErr)
			}
			if got := sim.BusyKernelWorkers(); got != 0 {
				t.Fatalf("P=%d %s: %d kernel workers still claimed after the run", parts, c.name, got)
			}
		}
	}
}

// TestFireHookUnderAutoPartitioning: an installed fire hook pins an
// automatic-partitioning engine to the sequential kernel, so the hook sees
// every event even on a circuit the policy would otherwise partition.
func TestFireHookUnderAutoPartitioning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ckt, st, tEnd := aboveFloorWorkload(t)
	eng := sim.NewEngine(ckt, sim.Options{Profile: true})

	res, err := eng.Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Partitions != 2 {
		t.Fatalf("hookless run used %d partitions, want 2 (workload below the floor?)", res.Profile.Partitions)
	}

	var calls uint64
	eng.SetFireHook(func(int32, float64) { calls++ })
	res, err = eng.Run(st, tEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Partitions != 1 {
		t.Errorf("hooked run used %d partitions, want the sequential kernel", res.Profile.Partitions)
	}
	if calls != res.Stats.EventsProcessed {
		t.Errorf("fire hook called %d times, want Stats.EventsProcessed = %d", calls, res.Stats.EventsProcessed)
	}
}
