package main

import (
	"fmt"
	"time"

	"mplgo/internal/bench"
	"mplgo/mpl"
)

// program is one member of a batch workload's program set. Each run of it
// is a job: a fresh runtime (mpl.New), one Runtime.Run, and the checks.
type program struct {
	name   string
	size   string // survivors: "n" or "2n"
	leaves int    // survivors: long-lived leaves per run
	budget int64  // Config.HeapBudgetWords; 0 keeps the runtime default
	// body runs the program. tr and parent place its spans (nil/0 when
	// untraced); split, when non-nil, is the runtime whose LGC count the
	// body's alloc calls are split by.
	body   func(t *mpl.Task, tr *tracer, parent int64, split *mpl.Runtime) int64
	native func() int64
	ref    func() int64 // independent reference result
}

// suite is the disentangled (entangled=false) or entangled half of
// internal/bench at its default sizes, checked against the native Go
// implementations.
func suite(entangled bool) []program {
	var ps []program
	for _, b := range bench.All {
		if b.Entangled != entangled {
			continue
		}
		n := b.DefaultN
		ps = append(ps, program{
			name:   b.Name,
			body:   func(t *mpl.Task, _ *tracer, _ int64, _ *mpl.Runtime) int64 { return b.MPL(t, n) },
			native: func() int64 { return b.Native(n) },
			ref:    func() int64 { return b.Native(n) },
		})
	}
	return ps
}

// rtStats is what one runtime's public accessors report after its run.
type rtStats struct {
	entReads, slowReads, pins, unpins, pinnedPeakBytes, downPointers int64
	collections, copied, reclaimed, retained, cgcCycles, cgcFreed    int64
	steals, heaps, maxLive, allocWords                               int64
}

func statsOf(rt *mpl.Runtime) rtStats {
	es := rt.EntStats()
	col, cp, rec := rt.GCStats()
	cyc, freed, _, _, _ := rt.CGCStats()
	return rtStats{
		entReads: es.EntangledReads, slowReads: es.SlowReads, pins: es.Pins, unpins: es.Unpins,
		pinnedPeakBytes: es.PinnedPeakBytes, downPointers: es.DownPointers,
		collections: col, copied: cp, reclaimed: rec, retained: rt.RetainedChunks(),
		cgcCycles: cyc, cgcFreed: freed,
		steals: rt.Steals(), heaps: int64(rt.Tree().Count()), maxLive: rt.MaxLiveWords(),
		allocWords: rt.Space().TotalAllocWords(),
	}
}

// add sums b into s; peaks take the maximum.
func (s *rtStats) add(b rtStats) {
	s.entReads += b.entReads
	s.slowReads += b.slowReads
	s.pins += b.pins
	s.unpins += b.unpins
	s.pinnedPeakBytes = max(s.pinnedPeakBytes, b.pinnedPeakBytes)
	s.downPointers += b.downPointers
	s.collections += b.collections
	s.copied += b.copied
	s.reclaimed += b.reclaimed
	s.retained += b.retained
	s.cgcCycles += b.cgcCycles
	s.cgcFreed += b.cgcFreed
	s.steals += b.steals
	s.heaps += b.heaps
	s.maxLive = max(s.maxLive, b.maxLive)
	s.allocWords += b.allocWords
}

// audit is the post-run check every runtime gets: the run returned no
// error, heap invariants hold and every pin was released.
func audit(rt *mpl.Runtime, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("run: %w", runErr)
	}
	if err := rt.CheckInvariants(); err != nil {
		return fmt.Errorf("heap invariants: %w", err)
	}
	if es := rt.EntStats(); es.Pins != es.Unpins {
		return fmt.Errorf("leaked pins: %d pins != %d unpins", es.Pins, es.Unpins)
	}
	return nil
}

// checkResult compares a program's result with its reference.
func checkResult(got, want int64) error {
	if got != want {
		return fmt.Errorf("checksum %d, want %d", got, want)
	}
	return nil
}

type job struct {
	prog  *program
	wall  time.Duration // mpl.New + Runtime.Run
	newD  time.Duration // mpl.New alone
	cpu   time.Duration // process CPU across the same interval
	stats rtStats
	ok    bool
}

type pass struct {
	wall time.Duration
	cpu  time.Duration
	jobs []job
	ok   bool
}

// passCfg selects the runtime a pass runs on.
type passCfg struct {
	procs     int
	mode      mpl.Mode
	disableGC bool
	tr        *tracer // non-nil: record spans
	splitGC   bool    // traced P=1 pass: split alloc calls by collection
}

// runJob runs one program once on a fresh runtime and checks it.
func runJob(e *env, p *program, pc passCfg, refs map[string]int64, passSpan, req int64) job {
	cfg := mpl.Config{Procs: pc.procs, Mode: pc.mode, DisableGC: pc.disableGC, Seed: e.seed}
	if p.budget > 0 {
		cfg.HeapBudgetWords = p.budget
	}
	tr := pc.tr
	c0 := cpuTime()
	newID := tr.open("core.new", passSpan, req)
	s := time.Now()
	rt := mpl.New(cfg)
	newD := time.Since(s)
	tr.close(newID, nil)
	runID := tr.open("core.run", passSpan, req)
	var split *mpl.Runtime
	if pc.splitGC {
		split = rt
	}
	var got int64
	_, err := rt.Run(func(t *mpl.Task) mpl.Value {
		got = p.body(t, tr, runID, split)
		return mpl.Nil
	})
	wall := time.Since(s)
	tr.close(runID, nil)
	cpu := cpuTime() - c0

	what := fmt.Sprintf("%s (P=%d mode=%v nogc=%v)", p.name, pc.procs, pc.mode, pc.disableGC)
	ok := e.led.check(what, audit(rt, err))
	if ok {
		ok = e.led.check(what, checkResult(got, refs[p.name]))
	}
	return job{prog: p, wall: wall, newD: newD, cpu: cpu, stats: statsOf(rt), ok: ok}
}

// runPass runs every program once, in order; ok is false if any job
// failed its checks.
func runPass(e *env, progs []program, pc passCfg, refs map[string]int64, n int64) pass {
	id := pc.tr.open("pass", 0, n)
	out := pass{ok: true}
	for i := range progs {
		j := runJob(e, &progs[i], pc, refs, id, n)
		out.wall += j.wall
		out.cpu += j.cpu
		out.ok = out.ok && j.ok
		out.jobs = append(out.jobs, j)
	}
	pc.tr.close(id, nil)
	return out
}

// nativePass runs every program's plain-Go implementation once, checked
// against the same references, and returns its wall time.
func nativePass(e *env, progs []program, refs map[string]int64) time.Duration {
	var wall time.Duration
	for _, p := range progs {
		s := time.Now()
		got := p.native()
		wall += time.Since(s)
		e.led.check("native "+p.name, checkResult(got, refs[p.name]))
	}
	return wall
}

// setup computes the references and warms both runtimes' code paths. It
// returns the references; the timed part is the caller's.
func setup(e *env, progs []program) map[string]int64 {
	refs := map[string]int64{}
	for _, p := range progs {
		refs[p.name] = p.ref()
	}
	runPass(e, progs, passCfg{procs: 1}, refs, 0)
	runPass(e, progs, passCfg{procs: e.procs}, refs, 0)
	return refs
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// measureSetup runs fn setupRepeats times and reports the median as
// setup_s; the first repeat is timed from process start.
func measureSetup[T any](e *env, fn func() T) T {
	var out T
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		s := time.Now()
		if i == 0 {
			s = e.start
		}
		out = fn()
		ts = append(ts, time.Since(s).Seconds())
	}
	e.rep.set("setup_s", median(ts), len(ts), "process start to first timed pass; median of repeats")
	return out
}

// runBatch measures a batch workload: T1, Tseq and T_P passes
// interleaved for the whole budget, so host drift hits all three alike.
func runBatch(e *env, progs []program) error {
	if e.traced {
		return tracedBatch(e, progs)
	}
	refs := measureSetup(e, func() map[string]int64 { return setup(e, progs) })
	var n int64
	var t1, tseq, tp []float64
	var cpu time.Duration
	for end := time.Now().Add(e.budget); time.Now().Before(end); {
		n++
		if p := runPass(e, progs, passCfg{procs: 1}, refs, n); p.ok {
			t1 = append(t1, ms(p.wall))
		}
		tseq = append(tseq, ms(nativePass(e, progs, refs)))
		if p := runPass(e, progs, passCfg{procs: e.procs}, refs, n); p.ok {
			tp = append(tp, ms(p.wall))
			cpu += p.cpu
		}
	}
	if len(t1) == 0 || len(tp) == 0 {
		return fmt.Errorf("no passing pass (t1 %d, tp %d)", len(t1), len(tp))
	}
	r := e.rep
	r.set("t1_ms", median(t1), len(t1), "median pass on 1-worker runtimes")
	r.set("tp_ms", median(tp), len(tp), fmt.Sprintf("median pass on %d-worker runtimes", e.procs))
	v, q := tail(tp)
	r.set("tp_ms_tail", v, len(tp), fmt.Sprintf("p%.1f of tp passes", q))
	r.set("overhead_x", median(t1)/median(tseq), len(tseq), "t1_ms / median native Go pass")
	r.set("cpu_ms_per_op", ms(cpu)/float64(len(tp)), len(tp), "process CPU per tp pass")
	return nil
}

// tracedBatch is the traced run of a batch workload: untraced and traced
// passes interleaved at P (tracing overhead, per-layer counts, spans), an
// untraced P=1 pass for the CPU comparison, a traced P=1 pass that splits
// alloc time by whether a collection ran, and, for the suite workloads,
// the Unsafe and DisableGC ablation passes.
func tracedBatch(e *env, progs []program) error {
	refs := setup(e, progs)
	authored := progs[0].leaves > 0 // survivors: the bodies are the benchmark's own
	mainFrac := 0.55
	if authored {
		mainFrac = 1
	}
	tr1 := newTracer() // P=1 alloc attribution only; its spans are not written
	var n, splitPasses int64
	var untraced, traced, cpuP, cpu1, newMs []float64
	var st rtStats
	perSize := map[string]*rtStats{}
	for end := time.Now().Add(e.phase(mainFrac)); time.Now().Before(end); {
		n++
		if p := runPass(e, progs, passCfg{procs: e.procs}, refs, n); p.ok {
			untraced = append(untraced, ms(p.wall))
			cpuP = append(cpuP, ms(p.cpu))
			for _, j := range p.jobs {
				newMs = append(newMs, ms(j.newD))
			}
		}
		if p := runPass(e, progs, passCfg{procs: e.procs, tr: e.tr}, refs, n); p.ok {
			traced = append(traced, ms(p.wall))
			for _, j := range p.jobs {
				st.add(j.stats)
				if j.prog.size != "" {
					if perSize[j.prog.size] == nil {
						perSize[j.prog.size] = &rtStats{}
					}
					perSize[j.prog.size].add(j.stats)
				}
			}
		}
		if p := runPass(e, progs, passCfg{procs: 1}, refs, n); p.ok {
			cpu1 = append(cpu1, ms(p.cpu))
		}
		if authored && runPass(e, progs, passCfg{procs: 1, tr: tr1, splitGC: true}, refs, n).ok {
			splitPasses++
		}
	}
	if len(traced) == 0 || len(untraced) == 0 || len(cpu1) == 0 {
		return fmt.Errorf("no passing traced pass")
	}
	per := func(x int64) float64 { return float64(x) / float64(len(traced)) }
	r := e.rep
	r.set("entangle.ent_reads", per(st.entReads), len(traced), "per pass at P")
	r.set("entangle.slow_reads", per(st.slowReads), len(traced), "per pass at P")
	r.set("entangle.pins", per(st.pins), len(traced), "per pass at P")
	r.set("entangle.unpins", per(st.unpins), len(traced), "per pass at P")
	r.set("entangle.pinned_peak_bytes", float64(st.pinnedPeakBytes), len(traced), "max over jobs")
	r.set("entangle.down_pointers", per(st.downPointers), len(traced), "per pass at P")
	r.set("sched.steals", per(st.steals), len(traced), "per pass at P")
	r.set("sched.steals_per_heap", float64(st.steals)/float64(max(st.heaps, 1)), len(traced), "")
	r.set("sched.excess_cpu_ms", median(cpuP)-median(cpu1), len(cpuP), "CPU per pass at P minus at 1")
	r.set("gc.collections", per(st.collections), len(traced), "per pass at P")
	r.set("gc.copied_words", per(st.copied), len(traced), "per pass at P")
	r.set("gc.reclaimed_words", per(st.reclaimed), len(traced), "per pass at P")
	r.set("gc.retained_chunks", per(st.retained), len(traced), "per pass at P")
	r.set("gc.cgc_cycles", per(st.cgcCycles), len(traced), "per pass at P")
	r.set("gc.cgc_freed_words", per(st.cgcFreed), len(traced), "per pass at P")
	r.set("hierarchy.heaps", per(st.heaps), len(traced), "heaps created per pass at P")
	r.set("mem.max_live_words", float64(st.maxLive), len(traced), "peak MaxLiveWords over traced jobs at P")
	r.set("core.new_ms", median(newMs), len(newMs), "median mpl.New")
	for size, s := range perSize {
		r.set("gc.copy_per_alloc."+size, float64(s.copied)/float64(max(s.allocWords, 1)), len(traced), "LGC copied / allocated words at size "+size)
		if size == "n" {
			r.set("gc.collections_per_leaf.n", float64(s.collections)/float64(len(traced)*progs[0].leaves), len(traced), "LGC runs per leaf per run at size n")
		}
	}
	if authored {
		r.set("gc.lgc_ms", ms(time.Duration(tr1.lgc.Ns))/float64(max(splitPasses, 1)), int(tr1.lgc.N), "alloc calls across which an LGC ran, per P=1 pass")
		r.set("mem.alloc_ns", float64(tr1.plain.Ns)/float64(max(tr1.plain.N, 1)), int(tr1.plain.N), "mean alloc call that crossed no LGC (P=1)")
	}
	tracingReport(e, traced, untraced)

	if !authored {
		ablate(e, progs, refs)
	}
	return nil
}

// tracingReport sets the traced-run overhead and self-time metrics.
func tracingReport(e *env, traced, untraced []float64) {
	r := e.rep
	r.set("trace.tp_ms", median(traced), len(traced), "median traced pass at P")
	r.set("trace.untraced_tp_ms", median(untraced), len(untraced), "median untraced pass at P, same run")
	r.set("trace.overhead_frac", median(traced)/median(untraced)-1, len(traced), "")
	self := e.tr.selfTimes()
	r.set("trace.spans", float64(len(e.tr.spans)), 0, "")
	per := func(name string) float64 { return float64(self[name]) / 1e6 / float64(len(traced)) }
	r.set("self.core.run_ms", per("core.run"), len(traced), "per traced pass")
	r.set("self.core.par_ms", per("core.par"), len(traced), "per traced pass")
	r.set("self.mem.alloc_ms", per("mem.alloc"), len(traced), "per traced pass")
}

// ablate runs P=1 passes in Manage, Unsafe and DisableGC modes, checked;
// a failing pass is reported by the ledger and left out of the medians.
func ablate(e *env, progs []program, refs map[string]int64) {
	var manage, unsafe, nogc []float64
	var entReads int64
	for end := time.Now().Add(e.phase(0.45)); time.Now().Before(end); {
		if p := runPass(e, progs, passCfg{procs: 1}, refs, 0); p.ok {
			manage = append(manage, ms(p.wall))
			for _, j := range p.jobs {
				entReads += j.stats.entReads
			}
		}
		if p := runPass(e, progs, passCfg{procs: 1, mode: mpl.Unsafe}, refs, 0); p.ok {
			unsafe = append(unsafe, ms(p.wall))
		}
		if p := runPass(e, progs, passCfg{procs: 1, disableGC: true}, refs, 0); p.ok {
			nogc = append(nogc, ms(p.wall))
		}
	}
	r := e.rep
	if len(manage) == 0 || len(unsafe) == 0 || len(nogc) == 0 {
		fmt.Fprintf(e.log, "ablation: too few passing passes (manage %d, unsafe %d, nogc %d)\n", len(manage), len(unsafe), len(nogc))
		return
	}
	d := median(manage) - median(unsafe)
	r.set("entangle.ablate_ms", d, len(unsafe), "t1 Manage minus t1 Unsafe")
	if entReads > 0 {
		r.set("entangle.ns_per_ent_read", d*1e6/(float64(entReads)/float64(len(manage))), len(unsafe), "ablate_ms / ent_reads at P=1")
	}
	r.set("gc.ablate_ms", median(manage)-median(nogc), len(nogc), "t1 minus t1 with DisableGC")
}
