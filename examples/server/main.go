// Server: the entanglement-native request-processing workload
// (ROADMAP "a real network-facing service").
//
// The process is one long-lived runtime whose root task is the
// internal/serve dispatcher. Shared service state — a memoize cache and a
// dedup table — lives in the dispatcher's root heap; every request runs as
// its own scoped task with its own leaf heap (one admission token each)
// and reaches that shared state through ordinary managed entangled reads,
// publishing results back with entangled writes. Displaced cache entries
// become root-heap garbage that only the concurrent collector can reach
// (the root heap is internal for the whole life of the process), so CGC
// is what keeps the footprint flat between bursts.
//
// Fault domains: each request runs under a core.Scope with a deadline
// measured from arrival and a heap-word budget. A request that exceeds
// either unwinds alone — typed ErrDeadlineExceeded / ErrHeapLimit from its
// Submit — while the rest of the batch completes. Admission control sheds
// with a typed *Overload (wrapping ErrShed) when the queue or a telemetry
// watermark is over; the runtime itself is never cancelled by load.
//
// Two modes:
//
//	go run ./examples/server                      # self-drive a fixed request count, print a report
//	go run ./examples/server -listen :8080        # serve HTTP until /quit
//
// In HTTP mode the mux exposes:
//
//	/req?key=N     run one request (200 result, 503 shed, 504 deadline, 507 budget)
//	/metrics       runtime + admission counters (Prometheus exposition)
//	/debug/heaptree, /debug/pprof/*
//	/quit          drain, audit invariants, report, exit (non-200 = audit failed)
//
// cmd/mplgo-load is the matching open-loop load generator.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mplgo/internal/serve"
	"mplgo/internal/telemetry"
	"mplgo/mpl"
)

// app is the service: the dispatcher's shared heap state plus the
// admission controller in front of it.
type app struct {
	srv     *serve.Server
	frame   mpl.Frame // root frame: slot 0 memoize cache, slot 1 dedup table
	entries int
	work    int

	hits   atomic.Int64 // memoize hits (ancestor-heap read was enough)
	misses atomic.Int64 // recomputations (and republications)
	dups   atomic.Int64 // dedup-table CAS losses (another request got there first)
}

const (
	slotMemo  = 0
	slotDedup = 1
)

// handle builds one request body: a memoized keyed computation against
// the shared ancestor-heap cache. The read of the cache slot, the CAS on
// the dedup table, and the publication of a fresh result are all
// cross-heap effects running under the request's own scope.
func (a *app) handle(key int) func(*mpl.Task) mpl.Value {
	return func(t *mpl.Task) mpl.Value {
		slot := key % a.entries
		// GC discipline: cache refs are re-read from the shared frame at
		// every use, never held across an allocation — a single-request
		// batch runs inline on the dispatcher task, where the churn below
		// can trigger a moving local collection of the serving heap itself.
		// The frame slots are roots, so they always hold current refs.
		if v := t.Read(a.frame.Ref(slotMemo), slot); v.IsRef() && t.Read(v.Ref(), 0).AsInt() == int64(key) {
			a.hits.Add(1)
			return t.Read(v.Ref(), 1)
		}
		a.misses.Add(1)
		// Dedup table: first request for this slot claims it; concurrent
		// duplicates observe the claim through the entangled CAS and are
		// counted (a real service would coalesce onto the winner here).
		if !t.CAS(a.frame.Ref(slotDedup), slot, mpl.Nil, mpl.Int(int64(key))) {
			a.dups.Add(1)
		}
		// The miss path: transient allocation churn in the request's own
		// leaf heap, all garbage the moment the request joins.
		var acc int64
		for i := 0; i < a.work; i++ {
			tup := t.AllocTuple(mpl.Int(int64(key+i)), mpl.Int(int64(i)))
			acc += t.Read(tup, 0).AsInt() & 0xFF
		}
		// Publish into the ancestor cache; the displaced tuple dies in the
		// root heap, where only a concurrent cycle can reclaim it.
		res := t.AllocTuple(mpl.Int(int64(key)), mpl.Int(acc))
		t.Write(a.frame.Ref(slotMemo), slot, res.Value())
		return mpl.Int(acc)
	}
}

// audit is the post-drain invariant check shared by both modes: the
// runtime exited cleanly, heap invariants hold, every pin was released,
// and the admission ledger balances.
func (a *app) audit(rt *mpl.Runtime, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("runtime exit: %w", runErr)
	}
	if err := rt.CheckInvariants(); err != nil {
		return fmt.Errorf("heap invariants: %w", err)
	}
	if es := rt.EntStats(); es.Pins != es.Unpins {
		return fmt.Errorf("leaked pins: %d pins != %d unpins", es.Pins, es.Unpins)
	}
	if err := a.srv.Audit(); err != nil {
		return err
	}
	return nil
}

// report prints the service and collector counters after a drain.
func (a *app) report(rt *mpl.Runtime, elapsed time.Duration) {
	s := &a.srv.Stats
	fmt.Printf("served %d requests in %v (%d shed, %d deadline-exceeded, %d budget-exceeded, %d failed)\n",
		s.Completed.Load(), elapsed.Round(time.Millisecond),
		s.Shed.Load(), s.DeadlineExceeded.Load(), s.BudgetExceeded.Load(), s.Failed.Load())
	fmt.Printf("cache: %d hits, %d misses, %d dedup collisions\n",
		a.hits.Load(), a.misses.Load(), a.dups.Load())
	cycles, freed, swept, retained, lastLive := rt.CGCStats()
	fmt.Printf("cgc: %d cycles, %d words freed, %d chunks swept, %d retained, last live %d words (max live %d)\n",
		cycles, freed, swept, retained, lastLive, rt.MaxLiveWords())
}

func main() {
	procs := flag.Int("procs", 4, "scheduler workers")
	concurrency := flag.Int("concurrency", 4, "admission tokens: max requests per parallel batch")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 4x concurrency)")
	deadline := flag.Duration("deadline", 100*time.Millisecond, "per-request deadline from arrival (0 = none)")
	budget := flag.Int64("budget", 1<<20, "per-request heap-word budget (0 = unlimited)")
	maxLive := flag.Int64("max-live-words", 0, "live-words shedding watermark (0 = off)")
	entries := flag.Int("entries", 256, "slots in the shared memoize cache")
	work := flag.Int("work", 4000, "allocations per cache miss")
	requests := flag.Int("requests", 2000, "requests to run in self-drive mode")
	clients := flag.Int("clients", 16, "concurrent submitters in self-drive mode")
	listen := flag.String("listen", "", "serve HTTP here (e.g. :8080) instead of self-driving")
	flag.Parse()

	rt := mpl.New(mpl.Config{
		Procs:             *procs,
		CGC:               true,
		CGCThresholdWords: 1 << 16,
	})
	srv := serve.New(rt, serve.Config{
		MaxConcurrent: *concurrency,
		QueueDepth:    *queueDepth,
		Deadline:      *deadline,
		BudgetWords:   *budget,
		MaxLiveWords:  *maxLive,
	})
	a := &app{srv: srv, entries: *entries, work: *work}

	// The root body allocates the shared state in the root heap, then
	// becomes the dispatcher; rt.Run returns when Close drains the queue.
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := rt.Run(func(t *mpl.Task) mpl.Value {
			f := t.NewFrame(2)
			defer f.Pop()
			f.Set(slotMemo, t.AllocArray(a.entries, mpl.Nil).Value())
			f.Set(slotDedup, t.AllocArray(a.entries, mpl.Nil).Value())
			a.frame = f
			close(ready)
			return srv.Run(t)
		})
		// The dispatcher dying (panic, heap limit) is a service incident:
		// serve answers every in-flight Submit and sheds the rest, and the
		// cause — with the original panic stack — goes to the log.
		if err != nil {
			log.Printf("runtime exited: %v", err)
			var pe *mpl.PanicError
			if errors.As(err, &pe) {
				os.Stderr.Write(pe.Stack)
			}
		}
		done <- err
	}()
	<-ready

	if *listen != "" {
		serveHTTP(a, rt, *listen, done)
		return
	}
	selfDrive(a, rt, *requests, *clients, done)
}

// selfDrive floods the admission controller from local goroutines —
// retrying sheds with capped exponential backoff, as a remote client
// would — then drains and audits.
func selfDrive(a *app, rt *mpl.Runtime, requests, clients int, done chan error) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				n := next.Add(1)
				if n > int64(requests) {
					return
				}
				// Random keys over 2× the slot count: roughly half the
				// lookups find their key still resident, so the report shows
				// both memoize hits and displacement churn.
				key := rng.Intn(2 * a.entries)
				backoff := time.Millisecond
				for {
					_, err := a.srv.Submit(a.handle(key))
					if errors.Is(err, mpl.ErrShed) {
						time.Sleep(backoff)
						if backoff *= 2; backoff > 50*time.Millisecond {
							backoff = 50 * time.Millisecond
						}
						continue
					}
					break // typed per-request outcomes are counted in srv.Stats
				}
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	a.srv.Close()
	err := <-done
	a.report(rt, time.Since(start))
	if aerr := a.audit(rt, err); aerr != nil {
		log.Fatalf("audit: %v", aerr)
	}
	fmt.Println("audit: ok")
}

// serveHTTP exposes the service over a mux until /quit: requests on
// /req, telemetry on /metrics and /debug/heaptree, profiles via
// telemetry.RegisterPprof.
func serveHTTP(a *app, rt *mpl.Runtime, addr string, done chan error) {
	start := time.Now()
	mux := http.NewServeMux()
	telemetry.Register(mux, rt, &a.srv.Stats)
	telemetry.RegisterPprof(mux)

	mux.HandleFunc("/req", func(w http.ResponseWriter, r *http.Request) {
		key, _ := strconv.Atoi(r.URL.Query().Get("key"))
		v, err := a.srv.Submit(a.handle(key))
		var ov *serve.Overload
		switch {
		case errors.As(err, &ov):
			w.Header().Set("X-Retry-After", ov.RetryAfter.String())
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, mpl.ErrDeadlineExceeded):
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		case errors.Is(err, mpl.ErrHeapLimit):
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			fmt.Fprintf(w, "%d\n", v.AsInt())
		}
	})

	mux.HandleFunc("/quit", func(w http.ResponseWriter, _ *http.Request) {
		a.srv.Close()
		err := <-done
		a.report(rt, time.Since(start))
		code := 0
		if aerr := a.audit(rt, err); aerr != nil {
			log.Printf("audit: %v", aerr)
			http.Error(w, aerr.Error(), http.StatusInternalServerError)
			code = 1
		} else {
			fmt.Println("audit: ok")
			fmt.Fprintln(w, "ok")
		}
		// Let the response flush before the process exits.
		go func() { time.Sleep(200 * time.Millisecond); os.Exit(code) }()
	})

	log.Printf("serving on %s (/req, /metrics, /debug/heaptree, /debug/pprof, /quit)", addr)
	log.Fatal(http.ListenAndServe(addr, mux))
}
