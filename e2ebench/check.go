package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"halotis"
	"halotis/api"
)

// digest hashes the deterministic fields of a report — model, horizon,
// kernel statistics, sampled outputs and waveform crossings — so a report
// can be checked against its reference without keeping it. Wall time,
// cache and replica markers, trace IDs and profiles are excluded: they
// legitimately differ between backends and runs.
func digest(rep *api.Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	str(rep.Model)
	u64(math.Float64bits(rep.TEnd))
	st := rep.Stats
	for _, v := range []uint64{st.EventsQueued, st.EventsProcessed, st.EventsFiltered,
		st.Evaluations, st.Transitions, st.DegradedTransitions, st.FullyDegraded} {
		u64(v)
	}
	u64(uint64(len(rep.Outputs)))
	for _, name := range sortedKeys(rep.Outputs) {
		str(name)
		flag(rep.Outputs[name])
	}
	u64(uint64(len(rep.Waveforms)))
	for _, name := range sortedKeys(rep.Waveforms) {
		w := rep.Waveforms[name]
		str(name)
		flag(w.Init)
		u64(uint64(len(w.Crossings)))
		for _, c := range w.Crossings {
			u64(math.Float64bits(c.T))
			flag(c.Rising)
		}
	}
	return h.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refJob is one distinct request whose reference report is needed.
type refJob struct {
	circuit int
	req     api.Request
}

// references computes the reference digest of every distinct request: a
// Local session run with the sequential kernel (Partitions 1), outside
// every timed phase. workers bounds the parallelism.
func references(ctx context.Context, circuits []*halotis.Circuit, jobs map[uint64]refJob, workers int) (map[uint64]uint64, error) {
	local := halotis.NewLocal()
	sessions := make([]halotis.Session, len(circuits))
	for _, j := range jobs {
		if sessions[j.circuit] != nil {
			continue
		}
		s, err := local.Open(ctx, circuits[j.circuit])
		if err != nil {
			return nil, fmt.Errorf("open reference session: %w", err)
		}
		sessions[j.circuit] = s
	}

	out := make(map[uint64]uint64, len(jobs))
	var mu sync.Mutex
	var firstErr error
	next := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				j := jobs[k]
				req := j.req
				req.Partitions = 1
				req.Profile = false
				rep, err := sessions[j.circuit].Run(ctx, req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for request %x: %w", k, err)
				}
				if err == nil {
					out[k] = digest(rep)
				}
				mu.Unlock()
			}
		}()
	}
	for k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
