package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"asap/internal/machine"
	"asap/internal/queue"
	"asap/internal/resultcache"
	"asap/internal/sweep"
)

// probeExperiments are filled cold into a fresh result cache and then
// rendered warm; their cached cells are the payloads the resultcache
// probes read and write.
var probeExperiments = []string{"fences", "tail", "ablation-structs"}

const (
	probeRounds      = 3  // warm renders of each probe experiment, and reads of each cell
	machineNews      = 20 // direct machine.New calls
	journalAppends   = 40
	observeRuns      = 10
	probeCodeVersion = "perfbench-probe"
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// runProbes times single layers directly, in a fresh directory under
// work (the file system the daemon's -dir lives on), with inputs sized
// like service-warm's: journal records carry a job spec, store puts
// carry quick-scale results and manifest artifacts, and cache entries
// are real cells. Its sweep.Execute calls run on cold's pool and are
// checked against the quick oracle. cold.wall and the returned runtime
// counts cover the cold renders that fill the probe's result cache, and
// nothing else.
func runProbes(ctx context.Context, work string, cold *sweepRun, quick *oracle) (map[string]float64, rtDelta, error) {
	dir, err := os.MkdirTemp(work, "probe-")
	if err != nil {
		return nil, rtDelta{}, err
	}
	defer os.RemoveAll(dir)
	m := map[string]float64{}

	var news []float64
	for i := 0; i < machineNews; i++ {
		t := time.Now()
		machine.New(machine.DefaultConfig())
		news = append(news, msSince(t))
	}
	m["machine.new_ms"] = medianOf(news)

	var (
		observes []float64
		arts     []sweep.ObsArtifact
	)
	for i := 0; i < observeRuns; i++ {
		t := time.Now()
		arts, err = sweep.ObserveArtifacts(sweep.Spec{Experiments: probeExperiments[:1], Scale: "quick"})
		if err != nil {
			return nil, rtDelta{}, err
		}
		observes = append(observes, msSince(t))
	}
	m["sweep.observe_ms"] = medianOf(observes)

	if m["queue.journal_append_us"], err = probeJournal(dir); err != nil {
		return nil, rtDelta{}, err
	}
	payloads := make([][]byte, 0, len(quick.sections)+len(arts))
	names := make([]string, 0, len(quick.sections))
	for name := range quick.sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		payloads = append(payloads, []byte(quick.sections[name]))
	}
	for _, a := range arts {
		payloads = append(payloads, a.Data)
	}
	if m["queue.store_put_us"], m["queue.store_put_dedup_us"], err = probeStore(dir, payloads); err != nil {
		return nil, rtDelta{}, err
	}
	rt, err := probeCache(ctx, dir, cold, quick, m)
	if err != nil {
		return nil, rtDelta{}, err
	}
	return m, rt, nil
}

// probeJournal times fsynced journal appends of enqueue records.
func probeJournal(dir string) (float64, error) {
	j, _, _, err := queue.OpenFileJournal(filepath.Join(dir, "journal", "journal.log"))
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(sweep.Spec{Experiments: []string{"ablation-coalesce"}, Scale: "quick"})
	if err != nil {
		j.Close()
		return 0, err
	}
	var times []float64
	for i := 1; i <= journalAppends; i++ {
		t := time.Now()
		if err := j.Append(queue.Record{Type: queue.RecEnqueue, ID: uint64(i), Spec: spec, At: t.UnixNano()}); err != nil {
			j.Close()
			return 0, err
		}
		times = append(times, usSince(t))
	}
	return medianOf(times), j.Close()
}

// probeStore times first puts of each payload into a fresh artifact
// store, then the dedup puts of the same payloads.
func probeStore(dir string, payloads [][]byte) (put, dedup float64, err error) {
	st, err := queue.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return 0, 0, err
	}
	var times [2][]float64
	for round := range times {
		for _, p := range payloads {
			t := time.Now()
			if _, err := st.Put(p); err != nil {
				return 0, 0, err
			}
			times[round] = append(times[round], usSince(t))
		}
	}
	return medianOf(times[0]), medianOf(times[1]), nil
}

// probeCache fills a fresh result cache with the probe experiments
// (timed into cold.wall, with the runtime counts it returns), times
// their warm renders, and times reads and fresh writes of the cached
// cells.
func probeCache(ctx context.Context, dir string, cold *sweepRun, quick *oracle, m map[string]float64) (rtDelta, error) {
	root := filepath.Join(dir, "resultcache")
	cache, err := resultcache.Open(root)
	if err != nil {
		return rtDelta{}, err
	}
	render := func(name string) error {
		var out bytes.Buffer
		spec := sweep.Spec{Experiments: []string{name}, Scale: "quick"}
		res, err := sweep.Execute(ctx, spec, &out, sweep.Options{Pool: cold.pool, Cache: cache, CodeVersion: probeCodeVersion})
		if err != nil {
			return err
		}
		if res[0].Error != "" || !quick.matches(name, out.Bytes()) {
			return fmt.Errorf("probe render of %s differs from the oracle", name)
		}
		return nil
	}
	before, start := readRT(), time.Now()
	for _, name := range probeExperiments {
		if err := render(name); err != nil {
			return rtDelta{}, err
		}
	}
	cold.wall = time.Since(start)
	rt := readRT().minus(before)
	var renders []float64
	for i := 0; i < probeRounds; i++ {
		for _, name := range probeExperiments {
			t := time.Now()
			if err := render(name); err != nil {
				return rtDelta{}, err
			}
			renders = append(renders, msSince(t))
		}
	}
	m["sweep.render_warm_ms"] = medianOf(renders)

	keys, err := cacheKeys(root)
	if err != nil {
		return rtDelta{}, err
	}
	var gets, puts []float64
	cells := make([][]byte, len(keys))
	for i := 0; i < probeRounds; i++ {
		for k, key := range keys {
			t := time.Now()
			b, ok := cache.Get(key)
			gets = append(gets, usSince(t))
			if !ok {
				return rtDelta{}, fmt.Errorf("probe: cached cell %s missing", key)
			}
			cells[k] = b
		}
	}
	for k, b := range cells {
		sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench-probe-put-%d", k)))
		t := time.Now()
		if err := cache.Put(hex.EncodeToString(sum[:]), b); err != nil {
			return rtDelta{}, err
		}
		puts = append(puts, usSince(t))
	}
	m["resultcache.get_us"] = medianOf(gets)
	m["resultcache.put_us"] = medianOf(puts)
	return rt, nil
}

// cacheKeys lists the keys of a result cache's entries, which live at
// cells/<first two hex digits>/<rest>.
func cacheKeys(root string) ([]string, error) {
	var keys []string
	cells := filepath.Join(root, "cells")
	err := filepath.WalkDir(cells, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(cells, path)
		if err != nil {
			return err
		}
		if key := strings.ReplaceAll(rel, string(filepath.Separator), ""); len(key) == 64 {
			keys = append(keys, key)
		}
		return nil
	})
	if err == nil && len(keys) == 0 {
		err = fmt.Errorf("probe: result cache holds no cells")
	}
	return keys, err
}
