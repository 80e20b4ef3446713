package main

import (
	"math"
	"testing"
	"time"

	"repro"
)

// The benchmark's own closed form must agree with the program's model at
// the parameters both start from.
func TestEnergyMatchesModel(t *testing.T) {
	p := repro.Params11Mbps()
	for _, c := range []struct {
		raw, wire  int64
		compressed bool
	}{
		{2000, 2022, false},
		{2000, 1100, true},
		{1_200_000, 400_000, true},
		{128_000, 120_000, true},
		{5_000_000, 5_000_100, false},
	} {
		var e energyTally
		e.add(c.raw, c.wire, c.compressed)
		s, sc := float64(c.raw)/1e6, float64(c.wire)/1e6
		want := p.DownloadBreakdown(s)
		if c.compressed {
			want = p.InterleavedBreakdown(s, sc)
		}
		for _, pair := range [][2]float64{{e.radio, want.RadioJ}, {e.cpu, want.CPUJ}, {e.idle, want.IdleJ}} {
			if math.Abs(pair[0]-pair[1]) > 1e-12*math.Max(1, math.Abs(pair[1])) {
				t.Errorf("%+v: got radio/cpu/idle %g/%g/%g, model %+v", c, e.radio, e.cpu, e.idle, want)
				break
			}
		}
	}
}

func TestCoveredAndOverlap(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{base.Add(time.Duration(a) * time.Millisecond), base.Add(time.Duration(b) * time.Millisecond)}
	}
	span := at(0, 100)
	// Two overlapping children, one nested, one running past the span.
	ivs := []interval{at(10, 30), at(20, 40), at(25, 35), at(90, 120)}
	if got, want := covered(span, ivs), 40*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := maxOverlap(ivs); got != 3 {
		t.Errorf("maxOverlap = %d, want 3", got)
	}
	// A phase stamped at its end covers the time before its offset: recv
	// over [10,60], then verify stamped at 90 after running for 30 ms
	// leaves 20 ms of the span to self time. Placed forward from its
	// stamp, verify would be clipped at the span's end and leave 40.
	recv := phaseAt(base, 10*time.Millisecond, 50*time.Millisecond, false)
	verify := phaseAt(base, 90*time.Millisecond, 30*time.Millisecond, true)
	if verify != at(60, 90) {
		t.Errorf("end-stamped phase at %v, want %v", verify, at(60, 90))
	}
	if got, want := covered(span, []interval{recv, verify}), 80*time.Millisecond; got != want {
		t.Errorf("covered with an end-stamped phase = %v, want %v", got, want)
	}
	// Intervals that only touch are never open at once.
	if got := maxOverlap([]interval{at(0, 10), at(10, 20)}); got != 1 {
		t.Errorf("maxOverlap of touching intervals = %d, want 1", got)
	}
}
