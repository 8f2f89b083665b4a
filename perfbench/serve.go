package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locsched/internal/experiment"
	"locsched/internal/obs"
	"locsched/internal/server"
	"locsched/internal/workload"
)

// Serve load shape: a closed loop of serveClients callers over a stream
// of serveRequests requests per epoch, against a daemon with as many
// workers. Each epoch is a fresh process with an empty store, so every
// epoch sees the same cold executions.
const (
	serveRequests  = 1200
	serveSegment   = 200 // requests between calibrations
	serveDirectMax = 8   // served /v1/run keys re-computed directly after the timed phase
)

func serveClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// Histograms scraped from /metricsz, by the per-layer metric prefix they
// report under.
var serveHists = map[string]string{
	"server.queue_wait": "locsched_server_queue_wait_seconds",
	"server.execution":  "locsched_server_execution_seconds",
	"store.put":         "locsched_store_put_seconds",
}

// served is one completed request as the client saw it.
type served struct {
	req   serveRequest
	class string // X-Locsched-Result: cold, cached, disk, coalesced
	body  []byte
	ms    float64
	err   error
}

// runServePass runs one serve epoch: start an in-process daemon on a
// loopback listener with a persistent store in a temporary directory,
// replay the seeded stream from serveClients closed-loop clients, scrape
// the daemon's counters, check the responses, and shut down.
func runServePass(seed int64, epoch int, traced bool, spawned time.Time, run string) (*passReport, error) {
	stream := serveStream(seed, epoch, serveRequests)
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := server.DefaultConfig()
	cfg.Workers = serveClients()
	cfg.StoreDir = dir
	s, err := server.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.Shutdown(ctx)
		if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	base := "http://" + l.Addr().String()
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients()},
	}
	defer client.CloseIdleConnections()
	if err := waitHealthy(client, base); err != nil {
		stop()
		return nil, err
	}
	rep := &passReport{SetupS: time.Since(spawned).Seconds(), Metrics: map[string]float64{}}

	var tr *tracer
	root := -1
	if traced {
		tr = newTracer(run)
		root = tr.start("bench.epoch", -1)
	}
	statsBefore, metricsBefore, err := scrape(client, base)
	if err != nil {
		stop()
		return nil, err
	}
	// The stream runs in segments; after each, with no request in
	// flight, the host is calibrated outside the timed phase. Requests
	// overlap, so every latency takes the epoch's mean factor.
	cal := newCalibrator(runtime.GOMAXPROCS(0), tr, root)
	var results []served
	t0 := time.Now()
	for lo := 0; lo < len(stream); lo += serveSegment {
		t := time.Now()
		results = append(results, replay(client, base, stream[lo:min(lo+serveSegment, len(stream))], tr, root)...)
		cal.timed(t)
	}
	rep.WallS = (time.Since(t0) - cal.paused).Seconds()
	rep.OpsWallS = rep.WallS
	f := cal.factor()
	rep.WallF, rep.WarmF = f, f
	if traced {
		tr.end(root)
	}
	statsAfter, metricsAfter, err := scrape(client, base)
	if err != nil {
		stop()
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}

	bodies := make(map[string][]byte) // first body per request identity
	runBodies := make(map[string]server.RunResponse)
	coldRuns := 0
	for _, r := range results {
		rep.Attempted++
		if r.err != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, r.err.Error())
			continue
		}
		switch r.class {
		case "cold":
			rep.ColdMs, rep.ColdF = append(rep.ColdMs, r.ms), append(rep.ColdF, f)
			if r.req.Endpoint == "/v1/run" {
				coldRuns++
			}
		case "cached", "disk":
			rep.HitMs, rep.HitF = append(rep.HitMs, r.ms), append(rep.HitF, f)
		}
		id := r.req.Endpoint + " " + r.req.Body
		if prev, ok := bodies[id]; !ok {
			bodies[id] = r.body
		} else if !bytes.Equal(prev, r.body) {
			rep.Problems = append(rep.Problems, "repeated request returned different bytes: "+id)
		}
		if r.req.Endpoint == "/v1/run" {
			var resp server.RunResponse
			if err := json.Unmarshal(r.body, &resp); err != nil {
				rep.Problems = append(rep.Problems, fmt.Sprintf("decoding %s: %v", id, err))
				continue
			}
			runBodies[r.req.Body] = resp
		}
	}
	rep.Problems = append(rep.Problems, checkDirect(seed, stream, runBodies)...)

	addServeCounts(rep.Metrics, stream, runBodies)
	rep.Metrics["saving_pct"] = rep.Metrics["lsm_vs_rrs_saving_pct"]
	rep.Metrics["experiment.cells"] = float64(coldRuns)
	addStatsDeltas(rep.Metrics, statsBefore, statsAfter)
	delta := obs.DeltaSamples(metricsAfter, metricsBefore)
	rep.Hists = make(map[string]obs.HistSnapshot)
	for name, series := range serveHists {
		if h, ok := obs.HistogramFromSamples(delta, series); ok {
			rep.Hists[name] = h
		}
	}
	if traced {
		rep.Spans = tr.snapshot()
		for name, s := range selfTimes(rep.Spans) {
			rep.Metrics[name+"_s"] = s
		}
	}
	// The digest covers every distinct served /v1/run result.
	keys := make([]string, 0, len(runBodies))
	for k := range runBodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outs := make([]server.RunResponse, len(keys))
	for i, k := range keys {
		outs[i] = runBodies[k]
	}
	rep.Digest = digest(outs)
	return rep, nil
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads /statsz and /metricsz.
func scrape(client *http.Client, base string) (server.StatsSnapshot, []obs.Sample, error) {
	var snap server.StatsSnapshot
	body, err := get(client, base+"/statsz")
	if err != nil {
		return snap, nil, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	body, err = get(client, base+"/metricsz")
	if err != nil {
		return snap, nil, err
	}
	samples, err := obs.ParseExposition(body)
	if err != nil {
		return snap, nil, fmt.Errorf("parsing /metricsz: %w", err)
	}
	return snap, samples, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// replay sends the stream from serveClients closed-loop clients: each
// client takes the next request only after its previous reply arrived.
func replay(client *http.Client, base string, stream []serveRequest, tr *tracer, root int) []served {
	out := make([]served, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				id := -1
				if tr != nil {
					id = tr.start("server.request", root)
				}
				out[i] = send(client, base, stream[i])
				if tr != nil {
					tr.end(id)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and times it from the client's side.
func send(client *http.Client, base string, req serveRequest) served {
	t := time.Now()
	r := served{req: req}
	resp, err := client.Post(base+req.Endpoint, "application/json", bytes.NewBufferString(req.Body))
	if err != nil {
		r.err = fmt.Errorf("%s %s: %w", req.Endpoint, req.Body, err)
		return r
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.ms = msSince(t)
	r.class = resp.Header.Get("X-Locsched-Result")
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s %s: reading reply: %w", req.Endpoint, req.Body, err)
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("%s %s: %s: %s", req.Endpoint, req.Body, resp.Status, bytes.TrimSpace(r.body))
	}
	return r
}

// checkDirect re-computes a seeded sample of the served /v1/run keys
// with direct experiment calls, configured as the daemon's planner
// configures them, and requires the served counts to match.
func checkDirect(seed int64, stream []serveRequest, got map[string]server.RunResponse) []string {
	byBody := make(map[string]serveRequest)
	for _, r := range stream {
		if _, ok := got[r.Body]; ok && r.Endpoint == "/v1/run" {
			byBody[r.Body] = r
		}
	}
	keys := make([]string, 0, len(byBody))
	for k := range byBody {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := newRand(seed, 0, famDirect)
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var problems []string
	for _, k := range keys[:min(serveDirectMax, len(keys))] {
		want, err := direct(byBody[k])
		if err != nil {
			problems = append(problems, fmt.Sprintf("direct %s: %v", k, err))
			continue
		}
		g := got[k]
		if g.Cycles != want.Cycles || g.Hits != want.Hits || g.Misses != want.Misses ||
			g.Conflicts != want.Conflicts || g.Preemptions != want.Preemptions ||
			g.AffineResumes != want.AffineResumes || g.Migrations != want.Migrations || g.Relaid != want.Relaid {
			problems = append(problems, fmt.Sprintf("served %s differs from the direct experiment call", k))
		}
	}
	return problems
}

// direct runs one /v1/run request through the experiment layer.
func direct(req serveRequest) (*experiment.RunResult, error) {
	cfg := experiment.DefaultConfig()
	cfg.Workers = 1
	cfg.Machine.Cache.Size = req.CacheKB << 10
	cfg.Align = cfg.Machine.Cache.BlockSize
	policy, err := experiment.ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	if req.Workload.App != "" {
		a, err := workload.Build(req.Workload.App, 0, cfg.Workload)
		if err != nil {
			return nil, err
		}
		return experiment.RunApp(a, policy, cfg)
	}
	apps, err := workload.BuildMany(req.Workload.Mix, cfg.Workload)
	if err != nil {
		return nil, err
	}
	return experiment.RunMix(apps, policy, cfg)
}

// addServeCounts adds the simulated counts of the distinct served
// /v1/run results, and the mean saving of LS and LSM over RRS across the
// (workload, cache size) pairs the stream served under both policies.
func addServeCounts(m map[string]float64, stream []serveRequest, got map[string]server.RunResponse) {
	type pair struct {
		wl serveWorkload
		kb int64
	}
	cycles := make(map[pair]map[string]int64)
	var acc, miss, conf, cyc, pre, mig, relaid int64
	seen := make(map[string]bool)
	for _, r := range stream {
		resp, ok := got[r.Body]
		if !ok || r.Endpoint != "/v1/run" || seen[r.Body] {
			continue
		}
		seen[r.Body] = true
		acc += resp.Hits + resp.Misses
		miss += resp.Misses
		conf += resp.Conflicts
		cyc += resp.Cycles
		pre += resp.Preemptions
		mig += resp.Migrations
		relaid += int64(resp.Relaid)
		p := pair{r.Workload, r.CacheKB}
		if cycles[p] == nil {
			cycles[p] = make(map[string]int64)
		}
		cycles[p][r.Policy] = resp.Cycles
	}
	m["cache.accesses"] = float64(acc)
	m["cache.misses"] = float64(miss)
	m["cache.conflict_misses"] = float64(conf)
	m["cache.hit_ratio"] = ratio(acc-miss, acc)
	m["mpsoc.sim_cycles"] = float64(cyc)
	m["mpsoc.preemptions"] = float64(pre)
	m["mpsoc.migrations"] = float64(mig)
	m["sched.lsm_relaid_arrays"] = float64(relaid)
	for _, pol := range []string{"ls", "lsm"} {
		var saving []float64
		for _, c := range cycles {
			base, okBase := c["rrs"]
			v, ok := c[pol]
			if okBase && ok && base > 0 {
				saving = append(saving, 100*float64(base-v)/float64(base))
			}
		}
		sort.Float64s(saving) // fixed summation order: the mean repeats exactly
		m[pol+"_vs_rrs_saving_pct"] = mean(saving)
	}
}

// addStatsDeltas adds the daemon's counters over the timed phase.
func addStatsDeltas(m map[string]float64, before, after server.StatsSnapshot) {
	d := func(a, b int64) float64 { return float64(a - b) }
	m["server.requests"] = d(after.Requests, before.Requests)
	m["server.executions"] = d(after.Executions, before.Executions)
	m["server.cache_hits"] = d(after.CacheHits, before.CacheHits)
	m["server.coalesced"] = d(after.Coalesced, before.Coalesced)
	m["server.rejected"] = d(after.Rejected, before.Rejected)
	m["server.hit_ratio"] = ratio(after.CacheHits-before.CacheHits, after.Requests-before.Requests)
	m["store.writes"] = d(after.Store.Store.Writes, before.Store.Store.Writes)
	m["store.misses"] = d(after.Store.Store.Misses, before.Store.Store.Misses)
	addExperimentDeltas(m, before.Experiment, after.Experiment)
}
