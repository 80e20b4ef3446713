package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// clients is the closed loop's width: two client goroutines, one per core
// of the 2-core machine the benchmark is sized for.
const clients = 2

// setupsBefore and setupsAfter are how many times an untraced run sets
// up before and after its measured window.
const setupsBefore, setupsAfter = 5, 4

// traceCap sizes every tracer of a traced run; the traced window stops
// early rather than let a ring evict spans.
const traceCap = 1 << 15

type file struct {
	name string
	data []byte
}

// inProcess is a workload driven against an in-process server.
type inProcess struct {
	name string
	// files generates the registered content; it runs inside set-up.
	files func() []file
	// precompress lists the schemes set-up precompresses every file with.
	precompress []repro.Scheme
	// pick chooses the next fetch's scheme and mode; files are dealt from
	// a seeded shuffle of all of them, so every run reads the same mix.
	pick func(r *rand.Rand) (repro.Scheme, repro.ProxyClientMode)
	// rewritable, when positive, makes every read followed by
	// re-registering a random one of the first rewritable files with
	// identical bytes, which drops its cached artifacts.
	rewritable int
}

// table2 is the paper's Table 2 corpus at 1/8 scale: 14 small files of
// 1.4-79 KB and 24 large ones of 15 KB-1.2 MB.
func table2() []file {
	var out []file
	for _, fs := range repro.ScaledCorpus(1.0 / 8) {
		out = append(out, file{fs.Name, fs.Generate()})
	}
	return out
}

func hitTable2() *inProcess {
	return &inProcess{
		name:        "hit-table2",
		files:       table2,
		precompress: []repro.Scheme{repro.Gzip},
		pick: func(*rand.Rand) (repro.Scheme, repro.ProxyClientMode) {
			return repro.Gzip, repro.ProxyPrecompressed
		},
	}
}

func churnSelective() *inProcess {
	return &inProcess{
		name: "churn-selective",
		files: func() []file {
			return append(table2(), file{"mixed.tar", repro.GenerateMixedFile(1<<20, 1)})
		},
		precompress: []repro.Scheme{repro.Gzip},
		pick: func(r *rand.Rand) (repro.Scheme, repro.ProxyClientMode) {
			if r.Intn(2) == 0 {
				return repro.Gzip, repro.ProxySelective
			}
			return repro.Gzip, repro.ProxyOnDemand
		},
		rewritable: len(repro.ScaledCorpus(1.0 / 8)),
	}
}

// fleetShapes stands in for fleet-10k's payloads in-process: its 2 KB
// mail-class ping.txt and 3 KB pong.bin (a class-file shape, factor near
// the spec's 1.5), over every scheme and mode. loadgen runs the proxy in
// its own process, so the proxy and runtime layers of that workload are
// measured on this replay.
func fleetShapes() *inProcess {
	schemes := []repro.Scheme{repro.Gzip, repro.Compress, repro.Bzip2}
	modes := []repro.ProxyClientMode{repro.ProxyRaw, repro.ProxyPrecompressed, repro.ProxyOnDemand, repro.ProxySelective}
	return &inProcess{
		name: "fleet-10k",
		files: func() []file {
			var out []file
			for _, fs := range repro.Corpus() {
				switch fs.Name {
				case "mail0":
					fs.Name, fs.Size = "ping.txt", 2000
				case "PolyhedronElement.class":
					fs.Name, fs.Size = "pong.bin", 3000
				default:
					continue
				}
				out = append(out, file{fs.Name, fs.Generate()})
			}
			return out
		},
		precompress: schemes,
		pick: func(r *rand.Rand) (repro.Scheme, repro.ProxyClientMode) {
			return schemes[r.Intn(len(schemes))], modes[r.Intn(len(modes))]
		},
	}
}

// rig is a set-up server with its content.
type rig struct {
	srv   *repro.ProxyServer
	addr  string
	files []file
}

// setUp generates the content, starts a server and registers and
// precompresses every file. Spans around Register and Precompress go to
// bench (nil records none).
func (w *inProcess) setUp(serverTracer, bench *repro.Tracer) (*rig, error) {
	files := w.files()
	srv := repro.NewProxyServerWith(nil, repro.ProxyConfig{Tracer: serverTracer})
	for _, f := range files {
		sp := bench.Start("bench.register")
		srv.Register(f.name, f.data)
		sp.Finish()
		for _, s := range w.precompress {
			sp := bench.Start("bench.precompress")
			err := srv.Precompress(f.name, s)
			sp.Fail(err)
			sp.Finish()
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("precompress %s: %w", f.name, err)
			}
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &rig{srv, addr, files}, nil
}

// tally is what the closed loop observed.
type tally struct {
	done                        []okFetch
	fetches, ok, failed, writes int64
	mismatched, compressedFetch int64
	attempts                    int64
	energy                      energyTally
	// marks are the process's CPU time once a second through the loop.
	marks []cpuMark
}

// okFetch is one successful fetch: when it completed, counted from the
// start of the loop, its latency and its raw bytes.
type okFetch struct {
	at    time.Duration
	latMS float64
	raw   int64
}

type cpuMark struct{ at, cpu time.Duration }

func (t *tally) merge(o *tally) {
	t.done = append(t.done, o.done...)
	t.fetches += o.fetches
	t.ok += o.ok
	t.failed += o.failed
	t.writes += o.writes
	t.mismatched += o.mismatched
	t.compressedFetch += o.compressedFetch
	t.attempts += o.attempts
	t.energy.merge(o.energy)
}

// drive runs the closed loop for d, or until limit fetches when limit is
// positive. With clientTracers set, each client records its fetch spans
// there and every Fetch and Register gets a bench span carrying the
// fetch's request ID.
func (w *inProcess) drive(r *rig, seed int64, d time.Duration, limit int64, clientTracers []*repro.Tracer, bench *repro.Tracer) *tally {
	begin := time.Now()
	deadline := begin.Add(d)
	var started atomic.Int64
	parts := make([]*tally, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		parts[i] = &tally{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := parts[i]
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			cl := repro.NewProxyClient(r.addr)
			var last repro.TraceSpan
			if clientTracers != nil {
				cl.Tracer = clientTracers[i]
				// Fetch finishes its span on the calling goroutine, so the
				// hook hands this worker its own fetch's span.
				cl.Tracer.SetOnFinish(func(d repro.TraceSpan) { last = d })
			}
			var deck []int
			for time.Now().Before(deadline) && (limit <= 0 || started.Add(1) <= limit) {
				if len(deck) == 0 {
					deck = rng.Perm(len(r.files))
				}
				f := r.files[deck[0]]
				deck = deck[1:]
				scheme, mode := w.pick(rng)
				sp := bench.Start("bench.fetch")
				t0 := time.Now()
				got, st, err := cl.Fetch(f.name, scheme, mode)
				lat := time.Since(t0)
				if clientTracers != nil {
					sp.SetAttr("req_id", last.Attrs["req_id"])
				}
				sp.Fail(err)
				sp.Finish()
				t.fetches++
				t.attempts += int64(st.Attempts)
				switch {
				case err != nil:
					t.failed++
				case !bytes.Equal(got, f.data):
					t.mismatched++
				default:
					t.ok++
					t.done = append(t.done, okFetch{time.Since(begin), float64(lat.Nanoseconds()) / 1e6, int64(st.RawBytes)})
					if st.BlocksCompressed > 0 {
						t.compressedFetch++
					}
					t.energy.add(int64(st.RawBytes), int64(st.WireBytes), st.BlocksCompressed > 0)
				}
				if w.rewritable > 0 {
					f := r.files[rng.Intn(w.rewritable)]
					sp := bench.Start("bench.register")
					r.srv.Register(f.name, f.data)
					sp.Finish()
					t.writes++
				}
			}
		}(i)
	}
	stop := make(chan struct{})
	marks := make(chan []cpuMark, 1)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		out := []cpuMark{{0, selfUsage().cpu}}
		for {
			select {
			case <-stop:
				marks <- out
				return
			case now := <-tick.C:
				out = append(out, cpuMark{now.Sub(begin), selfUsage().cpu})
			}
		}
	}()
	wg.Wait()
	close(stop)
	total := &tally{marks: <-marks}
	for _, p := range parts {
		total.merge(p)
	}
	sort.Slice(total.done, func(i, j int) bool { return total.done[i].at < total.done[j].at })
	return total
}

// windowMedians reports the loop's throughput, CPU per fetch and median
// latency as medians over its one-second windows, so a burst of load
// from elsewhere on a shared machine moves one window, not the figure.
func (t *tally) windowMedians() (fps, mbps, cpuMS, p50 float64, err error) {
	var fpsW, mbpsW, cpuW, p50W []float64
	i := 0
	for k := 0; k+1 < len(t.marks); k++ {
		a, b := t.marks[k], t.marks[k+1]
		var lat []float64
		var raw int64
		for ; i < len(t.done) && t.done[i].at < b.at; i++ {
			lat = append(lat, t.done[i].latMS)
			raw += t.done[i].raw
		}
		if len(lat) == 0 {
			continue
		}
		sec, n := (b.at - a.at).Seconds(), float64(len(lat))
		sort.Float64s(lat)
		fpsW = append(fpsW, n/sec)
		mbpsW = append(mbpsW, float64(raw)/1e6/sec)
		cpuW = append(cpuW, (b.cpu-a.cpu).Seconds()*1e3/n)
		p50W = append(p50W, quantile(lat, 0.50))
	}
	if len(fpsW) < 3 {
		return 0, 0, 0, 0, fmt.Errorf("only %d one-second windows held a fetch; need 3", len(fpsW))
	}
	return median(fpsW), median(mbpsW), median(cpuW), median(p50W), nil
}

// check records the output checks of a closed loop on o.
func (t *tally) check(o *outcome) {
	o.attempted += t.fetches + t.writes
	o.failed += t.failed + t.mismatched
	if t.mismatched > 0 {
		o.fail("%d fetched payloads differ from the registered bytes", t.mismatched)
	}
	if t.ok == 0 {
		o.fail("no fetch succeeded")
	}
}

func runInProcess(w *inProcess, opt options) (*outcome, error) {
	if opt.trace {
		return traceInProcess(w, opt, repro.NewTracer(4*traceCap))
	}
	o := newOutcome()
	// Set-up is timed several times before the measured window and after
	// it, so its median samples the machine over the whole run; the
	// window runs on the last rig set up before it.
	var setups []float64
	var r *rig
	// setUp replaces r with a new rig, collecting the old one.
	setUp := func() error {
		t0 := time.Now()
		rk, err := w.setUp(nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r != nil {
			r.srv.Close()
		}
		r = rk
		runtime.GC()
		return nil
	}
	for k := 0; k < setupsBefore; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	t := w.drive(r, opt.seed, opt.seconds, 0, nil, nil)
	wall := time.Since(t0).Seconds()
	u1 := selfUsage()
	for k := 0; k < setupsAfter; k++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	r.srv.Close()
	t.check(o)
	lat := make([]float64, len(t.done))
	for i, f := range t.done {
		lat[i] = f.latMS
	}
	sort.Float64s(lat)
	if len(lat) < 1000 {
		o.notes = append(o.notes, fmt.Sprintf("only %d fetches: fetch_p99_ms has fewer than 10 samples beyond it", len(lat)))
	}
	fps, mbps, cpu, p50, err := t.windowMedians()
	if err != nil {
		return nil, err
	}
	m := o.metrics
	m["setup_s"] = median(setups)
	m["fetches_per_s"], m["raw_mb_per_s"], m["cpu_ms_per_fetch"], m["fetch_p50_ms"] = fps, mbps, cpu, p50
	m["fetch_p99_ms"] = quantile(lat, 0.99)
	m["ok_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	m["peak_rss_mb"] = u1.maxRSS
	m["j_per_raw_mb"] = t.energy.perMB()
	o.notes = append(o.notes, fmt.Sprintf("%d fetches (%d ok), %d writes in %.2fs", t.fetches, t.ok, t.writes, wall))
	return o, nil
}

// traceInProcess measures the per-layer ledger: an untraced half-window
// (runtime, harness and energy metrics, and the baseline for the tracing
// overhead), then a traced half-window on a server built with a tracer,
// then the codec and selective replay. The benchmark's own spans go to
// bench, which is written out with the rest at the end.
func traceInProcess(w *inProcess, opt options, bench *repro.Tracer) (*outcome, error) {
	o := newOutcome()
	half := opt.seconds / 2

	r, err := w.setUp(nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rt0, u0, t0 := readRuntime(), selfUsage(), time.Now()
	plain := w.drive(r, opt.seed, half, 0, nil, nil)
	wall := time.Since(t0).Seconds()
	u1, rt1 := selfUsage(), readRuntime()
	r.srv.Close()
	plain.check(o)
	setRuntime(o, rt0, rt1, plain.fetches)
	o.metrics["harness.cpu_s"] = (u1.cpu - u0.cpu).Seconds()
	o.metrics["harness.cpu_per_wall"] = (u1.cpu - u0.cpu).Seconds() / wall
	o.metrics["harness.max_rss_mb"] = u1.maxRSS
	plain.energy.setSplit(o)
	plainRate := float64(plain.ok) / wall

	serverTracer := repro.NewTracer(traceCap)
	clientTracers := make([]*repro.Tracer, clients)
	for i := range clientTracers {
		clientTracers[i] = repro.NewTracer(traceCap)
	}
	setup := bench.Start("bench.setup")
	r, err = w.setUp(serverTracer, bench)
	setup.Finish()
	if err != nil {
		return nil, err
	}
	defer r.srv.Close()
	runtime.GC()
	before, t1 := r.srv.Stats(), time.Now()
	traced := w.drive(r, opt.seed, half, traceCap/2, clientTracers, bench)
	tracedWall := time.Since(t1).Seconds()
	after := r.srv.Stats()
	traced.check(o)
	o.metrics["trace.overhead_share"] = (plainRate - float64(traced.ok)/tracedWall) / plainRate

	var clientSpans []repro.TraceSpan
	for _, ct := range clientTracers {
		clientSpans = append(clientSpans, ct.Snapshot()...)
	}
	ledger(o, bench.Snapshot(), clientSpans, serverTracer.Snapshot(), before, after, traced)
	if err := replay(o, r.files, bench); err != nil {
		return nil, err
	}
	layerChecks(w.name, o, before, after)
	return o, writeTrace(opt, w.name, map[string][]repro.TraceSpan{
		"bench": bench.Snapshot(), "client": clientSpans, "server": serverTracer.Snapshot(),
	})
}

// layerChecks states whether a workload reached the layer it claims to
// stress; a workload that drifts off its layer is reported, not failed.
func layerChecks(name string, o *outcome, before, after repro.ProxyStats) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	compressions := after.Compressions - before.Compressions
	switch name {
	case "hit-table2":
		ok := misses == 0 && compressions == 0 && hits > 0
		o.notes = append(o.notes, fmt.Sprintf("layer check (all hits, no compression): %v (%d hits, %d misses, %d compressions)", ok, hits, misses, compressions))
	case "churn-selective":
		ok := 2*misses > hits+misses
		o.notes = append(o.notes, fmt.Sprintf("layer check (misses above one half): %v (%d hits, %d misses, %d compressions)", ok, hits, misses, compressions))
	}
}

// ledger folds the traced window's spans into per-layer metrics: mean
// microseconds per fetch for each client and server phase, self times,
// and the cache and singleflight ratios from the server's counters.
func ledger(o *outcome, bench, client, server []repro.TraceSpan, before, after repro.ProxyStats, t *tally) {
	clientByID := map[string]repro.TraceSpan{}
	for _, s := range client {
		clientByID[s.Attrs["req_id"]] = s
	}
	serverByID := map[string][]repro.TraceSpan{}
	for _, s := range server {
		if s.Name == "serve" {
			serverByID[s.Attrs["req_id"]] = append(serverByID[s.Attrs["req_id"]], s)
		}
	}
	sum := map[string]time.Duration{}
	seen := map[string]bool{}
	var fetches, writes int
	var writeTime time.Duration
	var queue []interval
	for _, b := range bench {
		switch b.Name {
		case "bench.register":
			writes++
			writeTime += b.End.Sub(b.Start)
			continue
		case "bench.fetch":
		default:
			continue
		}
		fetches++
		id := b.Attrs["req_id"]
		if cs, ok := clientByID[id]; ok {
			seen["client"] = true
			var ivs []interval
			for _, p := range cs.Phases {
				seen["client."+p.Name] = true
				sum["client."+p.Name] += p.Duration
				// The client stamps verify once the checksum has run, so
				// that phase covers the time before its offset.
				ivs = append(ivs, phaseAt(cs.Start, p.Start, p.Duration, p.Name == "verify"))
			}
			span := interval{cs.Start, cs.End}
			sum["client.self"] += span.end.Sub(span.start) - covered(span, ivs)
		}
		for _, ss := range serverByID[id] {
			seen["server"] = true
			var ivs []interval
			var missEnd time.Time
			for _, p := range ss.Phases {
				seen["server."+p.Name] = true
				sum["server."+p.Name] += p.Duration
				s := ss.Start.Add(p.Start)
				ivs = append(ivs, interval{s, s.Add(p.Duration)})
				switch p.Name {
				case "cache-miss":
					missEnd = s.Add(p.Duration)
				case "compress-on-demand":
					// Queued or compressing: from the miss to the end of
					// this request's compression.
					q := interval{s, s.Add(p.Duration)}
					if !missEnd.IsZero() {
						q.start = missEnd
					}
					queue = append(queue, q)
				}
			}
			span := interval{ss.Start, ss.End}
			sum["server.self"] += span.end.Sub(span.start) - covered(span, ivs)
		}
	}
	if fetches == 0 {
		return
	}
	m := o.metrics
	perFetch := func(key string) float64 { return float64(sum[key].Nanoseconds()) / 1e3 / float64(fetches) }
	// phase reports a phase that every fetch goes through; one that never
	// appears is missing, never zero.
	phase := func(metric, key string) {
		if seen[key] {
			m[metric] = perFetch(key)
		}
	}
	// optional reports a phase that only some fetches go through: it reads
	// zero when the counter that goes with it did not move either.
	optional := func(metric, key string, counted bool) {
		if seen[key] || !counted {
			m[metric] = perFetch(key)
		}
	}
	phase("proxy.client.dial_us", "client.dial")
	phase("proxy.client.header_us", "client.header")
	phase("proxy.client.recv_us", "client.recv")
	phase("proxy.client.verify_us", "client.verify")
	optional("proxy.client.decompress_busy_us", "client.decompress", t.compressedFetch > 0)
	if seen["client"] {
		m["proxy.client.unattributed_us"] = perFetch("client.self")
	}
	m["proxy.client.attempts_per_fetch"] = float64(t.attempts) / float64(t.fetches)

	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	compressions := after.Compressions - before.Compressions
	coalesced := after.Coalesced - before.Coalesced
	phase("proxy.server.read_request_us", "server.read-request")
	phase("proxy.server.write_blocks_us", "server.write-blocks")
	if seen["server.cache-hit"] || seen["server.cache-miss"] || hits+misses == 0 {
		m["proxy.server.cache_lookup_us"] = perFetch("server.cache-hit") + perFetch("server.cache-miss")
	}
	optional("proxy.server.compress_us", "server.compress-on-demand", compressions > 0)
	optional("proxy.server.coalesced_wait_us", "server.coalesced", coalesced > 0)
	if seen["server"] {
		m["proxy.server.serve_self_us"] = perFetch("server.self")
	}
	if seen["server.compress-on-demand"] || compressions == 0 {
		m["proxy.server.compress_queue_depth_max"] = float64(maxOverlap(queue))
	}
	if writes > 0 {
		m["proxy.server.register_us"] = float64(writeTime.Nanoseconds()) / 1e3 / float64(writes)
	}
	if hits+misses > 0 {
		m["proxy.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["proxy.singleflight.coalesced_ratio"] = 0
	m["proxy.server.compressions_per_miss"] = 0
	if misses > 0 {
		m["proxy.singleflight.coalesced_ratio"] = float64(coalesced) / float64(misses)
		m["proxy.server.compressions_per_miss"] = float64(compressions) / float64(misses)
	}
}

// writeTrace keeps the traced run's spans for inspection, as gzipped
// JSON under the checkout's build directory.
func writeTrace(opt options, workload string, spans map[string][]repro.TraceSpan) error {
	dir := filepath.Join(opt.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json.gz", workload, opt.seed)))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	werr := json.NewEncoder(zw).Encode(spans)
	if cerr := zw.Close(); werr == nil {
		werr = cerr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
