package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"mplgo/internal/bench"
	"mplgo/mpl"
)

func testEnv() *env {
	return &env{start: time.Now(), seed: 1, budget: time.Second, procs: 2, led: &ledger{}, rep: newReport(), log: io.Discard}
}

// The metric tables in main.go must be exactly the ones BENCHMARK.json
// declares, in order and with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		code []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, doc.EndToEnd}, {"per_layer", perLayer, doc.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", c.what, len(c.code), len(c.json))
		}
		for i, d := range c.code {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", c.what, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}

// A deliberately wrong reference must be counted as a failure, on the
// runtime pass and on the native pass alike, and the pass must not be
// used as a sample.
func TestWrongReferenceIsCounted(t *testing.T) {
	b, _ := bench.ByName("fib")
	progs := []program{{
		name:   "fib",
		body:   func(t *mpl.Task, _ *tracer, _ int64, _ *mpl.Runtime) int64 { return b.MPL(t, 15) },
		native: func() int64 { return b.Native(15) },
	}}
	e := testEnv()
	right := map[string]int64{"fib": b.Native(15)}
	if p := runPass(e, progs, passCfg{procs: 2}, right, 1); !p.ok || e.led.failed.Load() != 0 {
		t.Fatalf("correct reference: ok=%v failed=%d", p.ok, e.led.failed.Load())
	}
	wrong := map[string]int64{"fib": b.Native(15) + 1}
	if p := runPass(e, progs, passCfg{procs: 2}, wrong, 2); p.ok {
		t.Error("pass against a wrong reference reported ok")
	}
	nativePass(e, progs, wrong)
	if got := e.led.failed.Load(); got != 2 {
		t.Errorf("failed = %d, want 2 (runtime pass and native pass)", got)
	}
	if e.led.frac() <= 0 {
		t.Errorf("fail_frac = %v, want > 0", e.led.frac())
	}
}

// The survivors closed form must agree with both implementations, and a
// shifted closed form must fail.
func TestSurvivorsClosedForm(t *testing.T) {
	progs := survivorPrograms(7, 2)
	e := testEnv()
	refs := map[string]int64{}
	for _, p := range progs {
		refs[p.name] = p.ref()
	}
	if p := runPass(e, progs, passCfg{procs: 2}, refs, 1); !p.ok {
		t.Fatalf("survivors pass failed: %v", e.led.messages())
	}
	nativePass(e, progs, refs)
	if e.led.failed.Load() != 0 {
		t.Fatalf("failures: %v", e.led.messages())
	}
	refs[progs[0].name]++
	if p := runPass(e, progs, passCfg{procs: 1}, refs, 2); p.ok {
		t.Error("survivors pass against a wrong closed form reported ok")
	}
}

// A serve reply that differs from the per-key reference is a failure; a
// correct one is not.
func TestServeWrongReplyIsCounted(t *testing.T) {
	if o, err := classify(mpl.Int(serveRef(3)), nil, 3); o != okReply || err != nil {
		t.Fatalf("correct reply classified %v, %v", o, err)
	}
	if o, err := classify(mpl.Int(serveRef(3)+1), nil, 3); o != wrong || err == nil {
		t.Fatalf("wrong reply classified %v, %v", o, err)
	}
	e := testEnv()
	s := startService(2, 1, serveCGCThreshold)
	keys := []int{1, 2, 3, 1, 2, 3}
	if _, ok := s.pass(e, keys, nil, 0); !ok {
		t.Errorf("serve pass failed: %v", e.led.messages())
	}
	if err := s.stop(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := tail(xs)
	if v != 90 || q != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (10 samples beyond)", v, q)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "core.par", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "leaf", Start: 10, End: 60, CallNs: 30},
		{ID: 3, Parent: 1, Name: "leaf", Start: 40, End: 90},
	}
	self := tr.selfTimes()
	// par: 100 minus the union [10, 90) = 20; leaves: (50 - 30) + 50.
	if self["core.par"] != 20 || self["leaf"] != 70 {
		t.Errorf("self times = %v, want core.par 20, leaf 70", self)
	}
}
