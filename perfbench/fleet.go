package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// setupsPerFleet is how many one-client set-up runs precede each fleet
// run, and follow the last.
const setupsPerFleet = 5

// fleetSpec is the committed 10,000-handheld scenario.
const fleetSpec = "testdata/scenarios/loadgen/fleet-10k.scn"

// fleetEvent is the part of loadgen's wide-event JSONL the benchmark reads.
type fleetEvent struct {
	Span             string `json:"span"`
	Outcome          string `json:"outcome"`
	RawBytes         int64  `json:"raw_bytes"`
	WireBytes        int64  `json:"wire_bytes"`
	BlocksCompressed int    `json:"blocks_compressed"`
	Attempts         int    `json:"attempts"`
	DurNS            int64  `json:"dur_ns"`
}

// fleetRun is one loadgen process: host-side cost from its rusage, and
// the fleet's deterministic outputs from its events.
type fleetRun struct {
	wall  time.Duration
	usage usage

	ok, total, attempts, rawBytes int64
	p50ms, p99ms                  float64
	energy                        energyTally
}

// sameOutputs compares the outputs a seed fixes.
func (r fleetRun) sameOutputs(o fleetRun) bool {
	return r.ok == o.ok && r.total == o.total && r.p50ms == o.p50ms && r.p99ms == o.p99ms &&
		r.energy.perMB() == o.energy.perMB()
}

// loadgen is a loadgen binary built for one benchmark invocation.
type loadgen struct {
	bin, dir, spec string
}

// newLoadgen makes a fresh working directory under the checkout's build
// directory and, unless bin names a prebuilt binary, compiles
// cmd/loadgen into it; no timed interval includes the build.
func newLoadgen(root, bin string) (*loadgen, error) {
	parent := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "loadgen-")
	if err != nil {
		return nil, err
	}
	if bin == "" {
		bin = filepath.Join(dir, "loadgen")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/loadgen")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("building loadgen: %v\n%s", err, out)
		}
	}
	return &loadgen{bin: bin, dir: dir, spec: filepath.Join(root, fleetSpec)}, nil
}

func (l *loadgen) remove() { os.RemoveAll(l.dir) }

// run executes loadgen on a spec. With events, it reads the
// event stream back; a non-zero exit (an oracle or expect violation) is
// an error.
func (l *loadgen) run(spec string, seed int64, events bool, extra ...string) (fleetRun, error) {
	args := []string{"-spec", spec, "-seed", strconv.FormatInt(seed, 10)}
	path := filepath.Join(l.dir, "events.jsonl")
	if events {
		args = append(args, "-events", path)
	}
	cmd := exec.Command(l.bin, append(args, extra...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	t0 := time.Now()
	err := cmd.Run()
	r := fleetRun{wall: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("loadgen %v: %v\n%s", args, err, out.Bytes())
	}
	r.usage = rusageOf(cmd.ProcessState.SysUsage().(*syscall.Rusage))
	if !events {
		return r, nil
	}
	return r, r.readEvents(path)
}

func (r *fleetRun) readEvents(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var lat []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var e fleetEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if e.Span != "fetch" {
			continue
		}
		r.total++
		r.attempts += int64(e.Attempts)
		if e.Outcome != "ok" {
			continue
		}
		r.ok++
		r.rawBytes += e.RawBytes
		lat = append(lat, float64(e.DurNS)/1e6)
		r.energy.add(e.RawBytes, e.WireBytes, e.BlocksCompressed > 0)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	sort.Float64s(lat)
	r.p50ms, r.p99ms = quantile(lat, 0.50), quantile(lat, 0.99)
	return nil
}

func runFleet(lg *loadgen, opt options) (*outcome, error) {
	if opt.trace {
		return traceFleet(lg, opt)
	}
	o := newOutcome()
	// Set-up is what precedes the fleet's fetches: process start, spec
	// load and testbed construction, measured as a one-client run of the
	// spec. Its expect bounds are dropped there: they hold for a fleet,
	// not for one fetch. The run's seed is fixed, because which scheme and
	// mode its one fetch draws would otherwise move set-up time by a third
	// from seed to seed.
	spec, err := os.ReadFile(filepath.Join(opt.root, fleetSpec))
	if err != nil {
		return nil, err
	}
	var kept []string
	for _, line := range strings.Split(string(spec), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "expect ") {
			kept = append(kept, line)
		}
	}
	// The spec's name must match its file name.
	oneClient := filepath.Join(lg.dir, "setup", filepath.Base(fleetSpec))
	if err := os.MkdirAll(filepath.Dir(oneClient), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(oneClient, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		return nil, err
	}
	// A few set-ups before each fleet, so their median samples the
	// machine over the whole window.
	var setups []float64
	setUp := func() error {
		for k := 0; k < setupsPerFleet; k++ {
			r, err := lg.run(oneClient, 1, false, "-clients", "1")
			if err != nil {
				return err
			}
			setups = append(setups, r.wall.Seconds())
		}
		return nil
	}
	// Whole fleets at one seed until the window is spent, at least two so
	// the outputs the seed fixes can be compared.
	var runs []fleetRun
	for t0 := time.Now(); len(runs) < 2 || time.Since(t0) < opt.seconds; {
		if err := setUp(); err != nil {
			return nil, err
		}
		r, err := lg.run(lg.spec, opt.seed, true)
		if err != nil {
			o.fail("%v", err)
			return o, nil
		}
		o.attempted += r.total
		o.failed += r.total - r.ok
		if len(runs) > 0 && !r.sameOutputs(runs[0]) {
			o.fail("run %d at seed %d differs from run 1 in its ok/total counts, latency or joules", len(runs)+1, opt.seed)
		}
		runs = append(runs, r)
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	first := runs[0]
	if first.ok == 0 {
		o.fail("no fetch succeeded")
	}
	per := func(f func(fleetRun) float64) float64 {
		var v []float64
		for _, r := range runs {
			v = append(v, f(r))
		}
		return median(v)
	}
	m := o.metrics
	m["setup_s"] = median(setups)
	m["fetches_per_s"] = per(func(r fleetRun) float64 { return float64(r.ok) / r.wall.Seconds() })
	m["raw_mb_per_s"] = per(func(r fleetRun) float64 { return float64(r.rawBytes) / 1e6 / r.wall.Seconds() })
	m["fetch_p50_ms"] = first.p50ms
	m["fetch_p99_ms"] = first.p99ms
	m["ok_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	m["cpu_ms_per_fetch"] = per(func(r fleetRun) float64 { return r.usage.cpu.Seconds() * 1e3 / float64(r.ok) })
	m["peak_rss_mb"] = per(func(r fleetRun) float64 { return r.usage.maxRSS })
	m["j_per_raw_mb"] = first.energy.perMB()
	o.notes = append(o.notes, fmt.Sprintf("%d loadgen runs of %d fetches (%d ok)", len(runs), first.total, first.ok))
	return o, nil
}

// traceFleet runs one fleet inside a bench span for the harness and
// energy layers, and measures the proxy, runtime and codec layers on the
// fleet's payload shapes in-process.
func traceFleet(lg *loadgen, opt options) (*outcome, error) {
	bench := repro.NewTracer(4 * traceCap)
	sp := bench.Start("bench.loadgen")
	r, err := lg.run(lg.spec, opt.seed, true)
	sp.Fail(err)
	sp.Finish()
	o, perr := traceInProcess(fleetShapes(), opt, bench)
	if perr != nil {
		return nil, perr
	}
	if err != nil {
		o.fail("%v", err)
		return o, nil
	}
	o.attempted += r.total
	o.failed += r.total - r.ok
	m := o.metrics
	m["harness.cpu_s"] = r.usage.cpu.Seconds()
	m["harness.cpu_per_wall"] = r.usage.cpu.Seconds() / r.wall.Seconds()
	m["harness.max_rss_mb"] = r.usage.maxRSS
	m["proxy.client.attempts_per_fetch"] = float64(r.attempts) / float64(r.total)
	r.energy.setSplit(o)
	return o, nil
}
