package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mplgo/internal/serve"
	"mplgo/mpl"
)

// The serve workload: an in-process serve.Server with the concurrent
// collector on, running the request shape of examples/server. Each
// request reads a memo cache in the root heap, does a dedup CAS on a miss,
// allocates churn in its own leaf heap and publishes its result back into
// the root heap. Load is a closed-loop pass (for T1, T_P and Tseq) and an
// open-loop Poisson schedule precomputed from the seed (light, heavy and
// the max_rps ladder).

const (
	serveEntries = 256 // memo-cache and dedup-table slots
	// serveKeys keys over serveEntries slots: keys k and k+serveEntries
	// share a slot for k < serveKeys-serveEntries, the other slots have one
	// key. Uniform open-loop keys then hit about 2/3 of the time, so the
	// median request is a hit and the p99 a miss, each well inside its
	// own mode rather than on the boundary between them.
	serveKeys     = serveEntries * 3 / 2
	serveWork     = 4000 // churn allocations per cache miss, as in examples/server
	servePassReqs = 256  // requests per closed-loop pass
	serveClients  = 8    // closed-loop submitters

	serveMaxConcurrent = 4
	serveQueueDepth    = 4096 // deep enough that only a real overload sheds
	serveDeadline      = time.Second
	serveBudgetWords   = 1 << 20
	// serveCGCThreshold is the concurrent collector's trigger floor on the
	// measured servers, above the live set a run builds up. At lower floors
	// (examples/server uses 1<<16) cycles run back to back once live words
	// cross the floor, local collections are deferred behind them, and the
	// service falls into a deadline cascade even at rateLight; the traced
	// run measures that regime on its own server (cgcProbeThreshold).
	serveCGCThreshold = 1 << 22
	cgcProbeThreshold = 1 << 16

	// Offered rates. On a 2-vCPU host the service saturates near 5000
	// requests per second, past which deadline misses cascade.
	rateLight   = 500.0  // requests per second
	rateHeavy   = 1000.0 // requests per second
	ladderStart = 2400.0 // first max_rps rung, requests per second

	// latLimit is the p99 latency the max_rps ladder holds rungs to.
	latLimit = 50 * time.Millisecond
	// The ladder climbs from ladderStart by ladderStep per rung.
	ladderStep     = 1.1
	ladderRungReqs = 1500 // requests per rung: p99 has 15 samples beyond it
	ladderClimbs   = 2    // independent climbs; max_rps is their mean
	ladderRungs    = 16   // top rung: ladderStart * ladderStep^15, about 10000/s
	// lateLimit is how late the generator may send (p99) before its run
	// is invalid. Lateness below it is part of the measured latency (timed
	// from the due time); beyond it the generator, not the server, would
	// decide whether a rung meets latLimit.
	lateLimit = latLimit
)

// serveRef is the independent per-key reference: what a request for key
// returns, whether it hits the cache or recomputes.
func serveRef(key int) int64 {
	var acc int64
	for i := 0; i < serveWork; i++ {
		acc += int64(key+i) & 0xFF
	}
	return acc
}

// service is one long-lived runtime whose root task is the serve
// dispatcher; the memo cache and dedup table live in the root heap.
type service struct {
	rt    *mpl.Runtime
	srv   *serve.Server
	frame mpl.Frame // slot 0: memo cache, slot 1: dedup table
	done  chan error

	attempts, hits atomic.Int64
}

// startService starts a server on a procs-worker runtime, with the
// concurrent collector when cgcFloor (its trigger floor) is positive.
func startService(procs int, seed int64, cgcFloor int64) *service {
	rt := mpl.New(mpl.Config{Procs: procs, CGC: cgcFloor > 0, CGCThresholdWords: cgcFloor, Seed: seed})
	s := &service{
		rt: rt,
		srv: serve.New(rt, serve.Config{
			MaxConcurrent: serveMaxConcurrent,
			QueueDepth:    serveQueueDepth,
			Deadline:      serveDeadline,
			BudgetWords:   serveBudgetWords,
		}),
		done: make(chan error, 1),
	}
	ready := make(chan struct{})
	go func() {
		_, err := rt.Run(func(t *mpl.Task) mpl.Value {
			f := t.NewFrame(2)
			defer f.Pop()
			f.Set(0, t.AllocArray(serveEntries, mpl.Nil).Value())
			f.Set(1, t.AllocArray(serveEntries, mpl.Nil).Value())
			s.frame = f
			close(ready)
			return s.srv.Run(t)
		})
		s.done <- err
	}()
	<-ready
	return s
}

// stop drains the service and audits it: the runtime exited cleanly, heap
// invariants hold, every pin was released and the admission ledger
// balances.
func (s *service) stop() error {
	s.srv.Close()
	if err := audit(s.rt, <-s.done); err != nil {
		return err
	}
	return s.srv.Audit()
}

// handle builds the body of one request for key. Cache refs are re-read
// from the root frame at every use and never held across an allocation:
// a request may run inline on the dispatcher task, whose heap a local
// collection can move. tr/submit place the body span; both zero when
// untraced.
func (s *service) handle(key int, tr *tracer, submit, req int64) func(*mpl.Task) mpl.Value {
	return func(t *mpl.Task) mpl.Value {
		sp := tr.open("serve.body", submit, req)
		c := tr.newCalls(s.rt)
		v := s.body(t, key, c)
		tr.close(sp, c)
		return v
	}
}

func (s *service) body(t *mpl.Task, key int, c *calls) mpl.Value {
	s.attempts.Add(1)
	slot := key % serveEntries
	st := c.begin()
	v := t.Read(s.frame.Ref(0), slot)
	hit := v.IsRef() && t.Read(v.Ref(), 0).AsInt() == int64(key)
	c.end(kRead, st)
	if hit {
		s.hits.Add(1)
		st = c.begin()
		r := t.Read(v.Ref(), 1)
		c.end(kRead, st)
		return r
	}
	st = c.begin()
	t.CAS(s.frame.Ref(1), slot, mpl.Nil, mpl.Int(int64(key)))
	c.end(kCAS, st)
	var acc int64
	for i := 0; i < serveWork; i++ {
		st, g0 := c.begin(), c.collections()
		tup := t.AllocTuple(mpl.Int(int64(key+i)), mpl.Int(int64(i)))
		c.endAlloc(st, g0)
		st = c.begin()
		acc += t.Read(tup, 0).AsInt() & 0xFF
		c.end(kRead, st)
	}
	st, g0 := c.begin(), c.collections()
	res := t.AllocTuple(mpl.Int(int64(key)), mpl.Int(acc))
	c.endAlloc(st, g0)
	st = c.begin()
	t.Write(s.frame.Ref(0), slot, res.Value())
	c.end(kWrite, st)
	return mpl.Int(acc)
}

// outcome classifies one request's result against its reference.
type outcome int

const (
	okReply outcome = iota
	shed
	deadline
	wrong // wrong value or any other error
)

func classify(v mpl.Value, err error, key int) (outcome, error) {
	switch {
	case errors.Is(err, mpl.ErrShed):
		return shed, err
	case errors.Is(err, mpl.ErrDeadlineExceeded):
		return deadline, err
	case err != nil:
		return wrong, err
	case v.AsInt() != serveRef(key):
		return wrong, fmt.Errorf("key %d: reply %d, want %d", key, v.AsInt(), serveRef(key))
	}
	return okReply, nil
}

// pass submits keys through the server from serveClients closed-loop
// clients and returns the wall time; ok is false if any reply failed.
func (s *service) pass(e *env, keys []int, tr *tracer, n int64) (time.Duration, bool) {
	var next atomic.Int64
	var bad atomic.Bool
	var wg sync.WaitGroup
	id := tr.open("pass", 0, n)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				sub := tr.open("serve.submit", id, int64(i))
				v, err := s.srv.Submit(s.handle(keys[i], tr, sub, int64(i)))
				tr.close(sub, nil)
				_, cerr := classify(v, err, keys[i])
				if !e.led.check("serve pass", cerr) {
					bad.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	tr.close(id, nil)
	return wall, !bad.Load()
}

// warm fills every cache slot with a closed-loop pass over all keys, so
// open-loop phases start from the cache's steady state rather than cold.
func (s *service) warm(e *env) {
	keys := make([]int, serveKeys)
	for i := range keys {
		keys[i] = i
	}
	s.pass(e, keys, nil, 0)
}

// nativeService is the same request logic in plain Go: a memo cache of
// atomic pointers, a dedup table of atomic ints, heap-allocated churn.
type nativeService struct {
	memo  [serveEntries]atomic.Pointer[[2]int64]
	dedup [serveEntries]atomic.Int64
}

var nativePairSink *[2]int64

func (n *nativeService) handle(key int) int64 {
	slot := key % serveEntries
	if p := n.memo[slot].Load(); p != nil && p[0] == int64(key) {
		return p[1]
	}
	n.dedup[slot].CompareAndSwap(0, int64(key)+1)
	var acc int64
	for i := 0; i < serveWork; i++ {
		tup := &[2]int64{int64(key + i), int64(i)}
		nativePairSink = tup
		acc += tup[0] & 0xFF
	}
	n.memo[slot].Store(&[2]int64{int64(key), acc})
	return acc
}

// nativePass runs keys through the native service sequentially (Tseq).
func (n *nativeService) pass(e *env, keys []int) time.Duration {
	start := time.Now()
	bad := 0
	for _, k := range keys {
		if n.handle(k) != serveRef(k) {
			bad++
		}
	}
	wall := time.Since(start)
	var err error
	if bad != 0 {
		err = fmt.Errorf("%d wrong replies", bad)
	}
	e.led.check("native serve pass", err)
	return wall
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at  time.Duration // offset from the phase start
	key int
}

// poisson precomputes count arrivals at rate per second with uniform keys.
func poisson(rng *rand.Rand, rate float64, count int) []arrival {
	out := make([]arrival, count)
	var at float64
	for i := range out {
		at += rng.ExpFloat64() / rate
		out[i] = arrival{at: time.Duration(at * 1e9), key: rng.Intn(serveKeys)}
	}
	return out
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	rate        float64
	lat         []float64 // ms from due time to reply; +Inf for a failed request
	late        []float64 // ms from due time to send
	shed, dl    int
	outstanding int64 // requests in flight when the last one was sent
	cpu         time.Duration
	completed   int
}

func (r *openResult) p99() float64 { return pct(r.lat, 0.99) }

// valid reports whether the generator kept to its schedule.
func (r *openResult) valid() bool { return pct(r.late, 0.99) <= ms(lateLimit) }

// meets reports whether a ladder rung held the latency limit without a
// growing backlog.
func (r *openResult) meets() bool {
	backlog := int64(math.Ceil(r.rate*latLimit.Seconds())) + serveMaxConcurrent
	return r.p99() <= ms(latLimit) && r.outstanding <= backlog
}

// openLoop sends sched from one generator goroutine, each request on its
// own goroutine so a slow reply never delays the next send. Latency counts
// from the due time. With overload set, sheds and deadline misses count as
// failed operations (light and heavy); on ladder rungs they only fail the
// rung.
func (s *service) openLoop(e *env, sched []arrival, rate float64, overload bool, tr *tracer) openResult {
	r := openResult{rate: rate, lat: make([]float64, len(sched)), late: make([]float64, len(sched))}
	outs := make([]outcome, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	c0 := cpuTime()
	t0 := time.Now()
	for i, a := range sched {
		due := t0.Add(a.at)
		waitUntil(due)
		r.late[i] = ms(time.Since(due))
		inflight.Add(1)
		wg.Add(1)
		go func(i int, key int, due time.Time) {
			defer wg.Done()
			sub := tr.open("serve.submit", 0, int64(i))
			v, err := s.srv.Submit(s.handle(key, tr, sub, int64(i)))
			tr.close(sub, nil)
			r.lat[i] = ms(time.Since(due))
			inflight.Add(-1)
			o, cerr := classify(v, err, key)
			outs[i] = o
			if o == wrong || overload {
				e.led.check("serve request", cerr)
			} else {
				e.led.check("serve request", nil)
			}
		}(i, a.key, due)
	}
	r.outstanding = inflight.Load()
	wg.Wait()
	r.cpu = cpuTime() - c0
	for i, o := range outs {
		switch o {
		case okReply:
			r.completed++
			continue
		case shed:
			r.shed++
		case deadline:
			r.dl++
		}
		r.lat[i] = math.Inf(1) // a failed request misses any latency limit
	}
	return r
}

// waitUntil returns at t. It sleeps while t is far off and yields for the
// last stretch: a timer wakeup alone can land up to a millisecond late
// when no P is running, which would put the generator's timer resolution
// into every latency.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			time.Sleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

// spinWindow is how long before a send the generator stops sleeping.
const spinWindow = 1500 * time.Microsecond

// openLoopValid runs a light or heavy phase, whose sheds and deadline
// misses are failed operations. It retries up to twice when the generator
// fell behind its own schedule; a phase that stays invalid fails the run
// rather than report latencies the generator caused.
func (s *service) openLoopValid(e *env, name string, sched []arrival, rate float64, tr *tracer) (openResult, error) {
	for try := 0; try < 3; try++ {
		r := s.openLoop(e, sched, rate, true, tr)
		if r.valid() {
			return r, nil
		}
		fmt.Fprintf(e.log, "%s: generator late p99 %.3f ms > %v, retrying\n", name, pct(r.late, 0.99), lateLimit)
	}
	return openResult{}, fmt.Errorf("%s: load generator fell behind its schedule (late p99 > %v)", name, lateLimit)
}

// serveSegments is how many alternating light and heavy segments the
// open-loop phase is measured in. Each latency metric is the median of its
// per-segment values, so a stall of the host that lands in one segment
// moves one of them rather than the metric.
const serveSegments = 4

// serveInputs is everything a serve run derives from its seed.
type serveInputs struct {
	passKeys     []int
	light, heavy [serveSegments][]arrival
	rungs        [ladderRungs][]arrival // rung i offers ladderStart * ladderStep^i
}

func newServeInputs(seed int64, e *env) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := serveInputs{passKeys: passKeys(rng)}
	for k := range in.light {
		in.light[k] = poisson(rng, rateLight, int(rateLight*e.phase(0.25/serveSegments).Seconds()))
		in.heavy[k] = poisson(rng, rateHeavy, int(rateHeavy*e.phase(0.15/serveSegments).Seconds()))
	}
	rate := ladderStart
	for i := range in.rungs {
		in.rungs[i] = poisson(rng, rate, ladderRungReqs)
		rate *= ladderStep
	}
	return in
}

// passKeys draws a closed-loop pass whose cache behaviour does not depend
// on the seed: half the requests are colliding pairs of keys on one slot,
// which evict each other and miss on every pass; the other half have a
// slot to themselves and hit once warm. The seed picks the pair slots and
// the order.
func passKeys(rng *rand.Rand) []int {
	shared := serveKeys - serveEntries // slots [0, shared) have two keys
	var keys []int
	for _, slot := range rng.Perm(shared)[:servePassReqs/4] {
		keys = append(keys, slot, slot+serveEntries)
	}
	for slot := shared; slot < serveEntries; slot++ {
		keys = append(keys, slot)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func runServe(e *env) error {
	if e.traced {
		return tracedServe(e)
	}
	var s1 *service
	in := measureSetup(e, func() serveInputs {
		if s1 != nil {
			e.led.check("serve audit (setup)", s1.stop())
		}
		in := newServeInputs(e.seed, e)
		s1 = startService(1, e.seed, 0)
		s1.pass(e, in.passKeys, nil, 0)
		return in
	})

	// T1 and Tseq, alternating.
	nat := &nativeService{}
	nat.pass(e, in.passKeys)
	var t1, tseq []float64
	for end := time.Now().Add(e.phase(0.15)); time.Now().Before(end); {
		if w, ok := s1.pass(e, in.passKeys, nil, 0); ok {
			t1 = append(t1, ms(w))
		}
		tseq = append(tseq, ms(nat.pass(e, in.passKeys)))
	}
	e.led.check("serve audit (P=1)", s1.stop())

	sp := startService(e.procs, e.seed, 0)
	sp.pass(e, in.passKeys, nil, 0)
	var tp []float64
	for end := time.Now().Add(e.phase(0.15)); time.Now().Before(end); {
		if w, ok := sp.pass(e, in.passKeys, nil, 0); ok {
			tp = append(tp, ms(w))
		}
	}
	e.led.check("serve audit (P)", sp.stop())

	// The long-lived open-loop server, with the concurrent collector on.
	so := startService(e.procs, e.seed, serveCGCThreshold)
	so.warm(e)
	var light, heavy []openResult
	for k := 0; k < serveSegments; k++ {
		l, err := so.openLoopValid(e, "light", in.light[k], rateLight, nil)
		if err != nil {
			so.stop()
			return err
		}
		h, err := so.openLoopValid(e, "heavy", in.heavy[k], rateHeavy, nil)
		if err != nil {
			so.stop()
			return err
		}
		light, heavy = append(light, l), append(heavy, h)
	}
	e.led.check("serve audit (open loop)", so.stop())

	// max_rps: ladderClimbs climbs, each on a fresh server, since a
	// saturated server does not recover within a run.
	var climbs []float64
	for i := 0; i < ladderClimbs; i++ {
		sl := startService(e.procs, e.seed+int64(i), serveCGCThreshold)
		sl.warm(e)
		rate, rungs := sl.ladder(e, &in, time.Now().Add(e.phase(0.3/ladderClimbs)))
		e.led.check("serve audit (ladder)", sl.stop())
		fmt.Fprintf(e.log, "ladder %d: %s\n", i, rungs)
		climbs = append(climbs, rate)
	}
	if len(t1) == 0 || len(tp) == 0 {
		return fmt.Errorf("no passing pass in a phase (t1 %d, tp %d)", len(t1), len(tp))
	}

	r := e.rep
	r.set("t1_ms", median(t1), len(t1), fmt.Sprintf("median pass of %d requests, 1-worker server", servePassReqs))
	r.set("tp_ms", median(tp), len(tp), fmt.Sprintf("median pass of %d requests, %d-worker server", servePassReqs, e.procs))
	v, q := tail(tp)
	r.set("tp_ms_tail", v, len(tp), fmt.Sprintf("p%.1f of tp passes", q))
	r.set("overhead_x", median(t1)/median(tseq), len(tseq), "t1_ms / median native Go pass")
	var cpu time.Duration
	done := 0
	for _, l := range light {
		cpu += l.cpu
		done += l.completed
	}
	r.set("cpu_ms_per_op", ms(cpu)/float64(max(done, 1)), done, fmt.Sprintf("process CPU per completed request at %.0f/s", rateLight))
	for _, ph := range []struct {
		name string
		rate float64
		rs   []openResult
	}{{"light", rateLight, light}, {"heavy", rateHeavy, heavy}} {
		p50, n := segmentMedian(ph.rs, 0.5)
		p99, _ := segmentMedian(ph.rs, 0.99)
		r.set("lat_p50_ms."+ph.name, p50, n, fmt.Sprintf("open loop at %.0f/s from due time; median of %d segments", ph.rate, serveSegments))
		r.set("lat_p99_ms."+ph.name, p99, n, fmt.Sprintf("median of %d segment p99s", serveSegments))
	}
	r.set("max_rps", mean(climbs), len(climbs), fmt.Sprintf("mean over climbs of the highest rung with p99 <= %v and no growing backlog", latLimit))
	return nil
}

// segmentMedian is the median over segments of each segment's q-quantile
// latency, with the total number of requests behind it. A failed request
// counts as +Inf, so it misses any limit.
func segmentMedian(rs []openResult, q float64) (float64, int) {
	var vs []float64
	n := 0
	for _, r := range rs {
		vs = append(vs, pct(r.lat, q))
		n += len(r.lat)
	}
	return median(vs), n
}

// ladder climbs the offered-rate ladder and returns the highest rung that
// met the limit, with a one-line record of every rung. The rungs are
// fixed, ladderStart * ladderStep^i, climbed until one fails or the
// deadline passes: past saturation the service does not recover within a
// run, so a failed rung ends the ladder. A rung on which the generator
// fell behind fails too. When the first rung fails, the rung below the
// ladder is reported, so max_rps is never 0.
func (s *service) ladder(e *env, in *serveInputs, deadline time.Time) (float64, string) {
	var log strings.Builder
	best := ladderStart / ladderStep
	rate := ladderStart
	for i := 0; i < ladderRungs && time.Now().Before(deadline); i, rate = i+1, rate*ladderStep {
		r := s.openLoop(e, in.rungs[i], rate, false, nil)
		ok := r.valid() && r.meets()
		fmt.Fprintf(&log, "%.0f/s p99=%.2fms late99=%.2fms out=%d shed=%d dl=%d ok=%v; ",
			rate, r.p99(), pct(r.late, 0.99), r.outstanding, r.shed, r.dl, ok)
		if !ok {
			break
		}
		best = rate
	}
	return best, log.String()
}

// tracedServe is serve's traced run: untraced passes on a 1-worker
// server for the CPU comparison, untraced and traced passes interleaved on
// a P-worker server (tracing overhead, per-pass counts, spans), then a
// traced light open-loop phase on the CGC server for the serve.*,
// loadgen and CGC metrics.
func tracedServe(e *env) error {
	in := newServeInputs(e.seed, e)
	s1 := startService(1, e.seed, 0)
	s1.pass(e, in.passKeys, nil, 0)
	var cpu1 []float64
	for end := time.Now().Add(e.phase(0.15)); time.Now().Before(end); {
		c0 := cpuTime()
		if _, ok := s1.pass(e, in.passKeys, nil, 0); ok {
			cpu1 = append(cpu1, ms(cpuTime()-c0))
		}
	}
	e.led.check("serve audit (P=1)", s1.stop())

	sp := startService(e.procs, e.seed, 0)
	sp.pass(e, in.passKeys, nil, 0)
	before := statsOf(sp.rt)
	var untraced, traced, cpuP []float64
	passes := 0
	for end := time.Now().Add(e.phase(0.35)); time.Now().Before(end); {
		c0 := cpuTime()
		if w, ok := sp.pass(e, in.passKeys, nil, 0); ok {
			untraced = append(untraced, ms(w))
			cpuP = append(cpuP, ms(cpuTime()-c0))
		}
		if w, ok := sp.pass(e, in.passKeys, e.tr, int64(passes)); ok {
			traced = append(traced, ms(w))
		}
		passes += 2
	}
	after := statsOf(sp.rt)
	e.led.check("serve audit (P)", sp.stop())

	so := startService(e.procs, e.seed, serveCGCThreshold)
	so.warm(e)
	so.attempts.Store(0)
	so.hits.Store(0)
	st := &so.srv.Stats
	adm0, shed0, dl0 := st.Admitted.Load(), st.Shed.Load(), st.DeadlineExceeded.Load()
	spansBefore := len(e.tr.spans)
	var light openResult
	var live []float64 // MaxLiveWords of each light segment
	for k := 0; k < serveSegments; k++ {
		so.rt.Space().ResetMaxLive()
		l, err := so.openLoopValid(e, "light", in.light[k], rateLight, e.tr)
		live = append(live, float64(so.rt.MaxLiveWords()))
		if err != nil {
			so.stop()
			return err
		}
		light.lat = append(light.lat, l.lat...)
		light.late = append(light.late, l.late...)
		light.cpu += l.cpu
		light.completed += l.completed
	}
	adm, shedN, dl := st.Admitted.Load()-adm0, st.Shed.Load()-shed0, st.DeadlineExceeded.Load()-dl0
	hitFrac := float64(so.hits.Load()) / float64(max(so.attempts.Load(), 1))
	life := statsOf(so.rt)
	e.led.check("serve audit (open loop)", so.stop())

	// CGC probe: the first half of the light schedule on a server at the
	// examples/server trigger floor, where the collector cycles. Its
	// deadline misses are what it measures (gc.cgc_probe_deadline_frac);
	// like a ladder rung's, they are not counted as failed operations.
	pr := startService(e.procs, e.seed, cgcProbeThreshold)
	pr.warm(e)
	probe := pr.openLoop(e, in.light[0], rateLight, false, nil)
	probeLife := statsOf(pr.rt)
	e.led.check("serve audit (cgc probe)", pr.stop())
	if len(traced) == 0 || len(untraced) == 0 || len(cpu1) == 0 {
		return fmt.Errorf("no passing traced pass")
	}

	r := e.rep
	per := func(x int64) float64 { return float64(x) / float64(passes) }
	d := rtStats{
		entReads: after.entReads - before.entReads, slowReads: after.slowReads - before.slowReads,
		pins: after.pins - before.pins, unpins: after.unpins - before.unpins,
		downPointers: after.downPointers - before.downPointers,
		collections:  after.collections - before.collections, copied: after.copied - before.copied,
		reclaimed: after.reclaimed - before.reclaimed, steals: after.steals - before.steals,
		heaps: after.heaps - before.heaps,
	}
	r.set("entangle.ent_reads", per(d.entReads), passes, "per pass at P")
	r.set("entangle.slow_reads", per(d.slowReads), passes, "per pass at P")
	r.set("entangle.pins", per(d.pins), passes, "per pass at P")
	r.set("entangle.unpins", per(d.unpins), passes, "per pass at P")
	r.set("entangle.pinned_peak_bytes", float64(life.pinnedPeakBytes), 0, "open-loop server's life")
	r.set("entangle.down_pointers", per(d.downPointers), passes, "per pass at P")
	r.set("sched.steals", per(d.steals), passes, "per pass at P")
	r.set("sched.steals_per_heap", float64(d.steals)/float64(max(d.heaps, 1)), passes, "")
	r.set("sched.excess_cpu_ms", median(cpuP)-median(cpu1), len(cpuP), "CPU per pass at P minus at 1")
	r.set("gc.collections", per(d.collections), passes, "per pass at P")
	r.set("gc.copied_words", per(d.copied), passes, "per pass at P")
	r.set("gc.reclaimed_words", per(d.reclaimed), passes, "per pass at P")
	r.set("gc.retained_chunks", float64(life.retained), 0, "open-loop server's life")
	r.set("gc.cgc_cycles", float64(probeLife.cgcCycles), 0, fmt.Sprintf("CGC probe server (floor %d words); measured server: %d", cgcProbeThreshold, life.cgcCycles))
	r.set("gc.cgc_freed_words", float64(probeLife.cgcFreed), 0, "CGC probe server")
	r.set("gc.cgc_probe_deadline_frac", float64(probe.dl)/float64(len(probe.lat)), len(probe.lat), fmt.Sprintf("deadline misses on the CGC probe at %.0f/s", rateLight))
	r.set("hierarchy.heaps", per(d.heaps), passes, "heaps created per pass at P")
	r.set("mem.max_live_words", median(live), len(live), "median over light segments of the segment's MaxLiveWords")
	r.set("mem.alloc_ns", float64(e.tr.plain.Ns)/float64(max(e.tr.plain.N, 1)), int(e.tr.plain.N), "mean alloc call that crossed no LGC")

	// serve.* from the traced light phase's spans.
	var wait, body, reply []float64
	var bodyCPU int64
	spans := e.tr.spans[spansBefore:]
	submits := map[int64]span{}
	for _, x := range spans {
		if x.Name == "serve.submit" {
			submits[x.ID] = x
		}
	}
	for _, x := range spans {
		if x.Name != "serve.body" {
			continue
		}
		sub, ok := submits[x.Parent]
		if !ok {
			continue
		}
		wait = append(wait, float64(x.Start-sub.Start)/1e6)
		body = append(body, float64(x.End-x.Start)/1e6)
		reply = append(reply, float64(sub.End-x.End)/1e6)
		bodyCPU += x.End - x.Start
	}
	r.set("serve.queue_wait_ms.p50", pct(wait, 0.5), len(wait), fmt.Sprintf("Submit to body start, light %.0f/s", rateLight))
	r.set("serve.queue_wait_ms.p99", pct(wait, 0.99), len(wait), "")
	r.set("serve.body_ms.p50", pct(body, 0.5), len(body), "")
	r.set("serve.reply_ms.p99", pct(reply, 0.99), len(reply), "body end to Submit return")
	r.set("serve.admitted", float64(adm), 0, "light phase")
	r.set("serve.shed", float64(shedN), 0, "light phase")
	r.set("serve.deadline_exceeded", float64(dl), 0, "light phase")
	r.set("serve.cache_hit_frac", hitFrac, int(light.completed), "cache hits / requests, light phase")
	r.set("loadgen.late_ms.p99", pct(light.late, 0.99), len(light.late), "generator send lateness")
	r.set("sched.spin_cpu_frac", 1-float64(bodyCPU)/float64(max(light.cpu, 1)), len(body), "share of light-phase CPU outside request bodies")
	tracingReport(e, traced, untraced)
	self := e.tr.selfTimes()
	reqs := float64(len(traced)*servePassReqs + len(light.lat))
	r.set("self.serve.submit_ms", float64(self["serve.submit"])/1e6/reqs, int(reqs), "per traced request")
	r.set("self.serve.body_ms", float64(self["serve.body"])/1e6/reqs, int(reqs), "per traced request")
	return nil
}
