// Package mpl is the public API of mplgo: a Go reproduction of the
// hierarchical-heap parallel runtime with entanglement management from
//
//	Arora, Westrick, Acar. "Efficient Parallel Functional Programming
//	with Effects." PLDI 2023.
//
// The runtime executes nested fork–join programs over a simulated heap of
// tagged values. Memory is organized as a tree of heaps mirroring the task
// tree; tasks allocate and collect independently (hierarchical memory
// management), and unrestricted effects — including communication between
// concurrent tasks — are supported by managing entanglement: objects
// acquired across concurrent heaps are pinned until the tasks involved
// join, while disentangled objects pay only a one-test barrier.
//
// # Quick start
//
//	rt := mpl.New(mpl.Config{Procs: 4})
//	v, err := rt.Run(func(t *mpl.Task) mpl.Value {
//		a, b := t.Par(
//			func(t *mpl.Task) mpl.Value { return mpl.Int(21) },
//			func(t *mpl.Task) mpl.Value { return mpl.Int(21) },
//		)
//		return mpl.Int(a.AsInt() + b.AsInt())
//	})
//
// # GC discipline
//
// Local collections move objects and run only inside allocation calls.
// References held in Go variables across an allocation must be registered
// in a Frame (Task.NewFrame); arguments passed to allocation calls are
// protected automatically.
package mpl

import (
	"io"
	"time"

	"mplgo/internal/chaos"
	"mplgo/internal/core"
	"mplgo/internal/entangle"
	"mplgo/internal/mem"
	"mplgo/internal/sim"
	"mplgo/internal/trace"
)

// Value is a tagged word: a 63-bit integer, a reference, or Nil.
type Value = mem.Value

// Ref is a reference to a heap object.
type Ref = mem.Ref

// Nil is the null reference value.
const Nil = mem.Nil

// Int makes an immediate integer value.
func Int(i int64) Value { return mem.Int(i) }

// Bool makes an immediate boolean value.
func Bool(b bool) Value { return mem.Bool(b) }

// Task is a strand of the fork–join computation; all heap access goes
// through it so the entanglement barriers run.
type Task = core.Task

// Frame is a window of a task's shadow stack; its slots are GC roots.
type Frame = core.Frame

// Config parameterizes a Runtime.
type Config = core.Config

// Runtime is one instance of the hierarchical-heap runtime.
type Runtime = core.Runtime

// ElisionStats summarizes barrier elision for one runtime (see
// Runtime.ElisionStats).
type ElisionStats = core.ElisionStats

// Mode selects how the runtime responds to entanglement.
type Mode = entangle.Mode

// Entanglement modes.
const (
	// Manage pins entangled objects and proceeds (the paper).
	Manage = entangle.Manage
	// Detect reports entanglement as an error (MPL before the paper).
	Detect = entangle.Detect
	// Unsafe disables the barriers (ablation only).
	Unsafe = entangle.Unsafe
)

// ErrEntangled is returned by Run in Detect mode when the program
// entangles.
var ErrEntangled = entangle.ErrEntangled

// ErrCancelled is returned by Run when the computation was aborted via
// Runtime.Cancel before completing.
var ErrCancelled = core.ErrCancelled

// ErrHeapLimit is returned by Run when Config.MaxHeapWords was exceeded and
// a forced collection could not bring residency back under the limit.
var ErrHeapLimit = core.ErrHeapLimit

// PanicError wraps a panic recovered from a task branch; Run returns it
// instead of crashing the process or hanging the worker pool. Unwrap
// exposes panics whose value was itself an error, so errors.Is sees the
// typed resource-exhaustion panics.
type PanicError = core.PanicError

// Scope is a request-scoped fault domain: a cancellation scope with an
// optional monotonic deadline and heap-word budget, covering the subtree
// of tasks that runs under it (Task.RunScoped, Task.ForkScoped). A dead
// scope unwinds only its own subtree — concurrent siblings, and the
// runtime, keep going.
type Scope = core.Scope

// NewScope creates a fault domain under parent (nil for top-level). The
// zero deadline means none; budgetWords 0 means unlimited. Prefer
// Task.NewScope inside a computation — it nests under the task's current
// scope automatically.
func NewScope(parent *Scope, deadline time.Time, budgetWords int64) *Scope {
	return core.NewScope(parent, deadline, budgetWords)
}

// ErrDeadlineExceeded is the cancellation cause of a Scope whose deadline
// passed; the scoped join's error wraps it.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// ErrShed is the sentinel under typed admission refusals (internal/serve's
// *Overload unwraps to it): the request never entered the runtime and
// should be retried after backoff.
var ErrShed = core.ErrShed

// ChaosOptions configures the deterministic fault-injection layer via
// Config.Chaos (rates are per-1024 probabilities at each injection point,
// derived from Config.Seed). Testing only — never set in timing runs.
type ChaosOptions = chaos.Options

// ChaosSoak returns the aggressive preset used by the chaos test suite.
func ChaosSoak() ChaosOptions { return chaos.Soak() }

// New creates a runtime. A runtime executes one computation via Run.
func New(cfg Config) *Runtime { return core.New(cfg) }

// Run is a convenience wrapper: create a runtime with cfg and run f.
func Run(cfg Config, f func(*Task) Value) (Value, error) {
	return New(cfg).Run(f)
}

// Tracer collects runtime events — forks, joins, steals, collection
// phases, entanglement pins — into per-worker lock-free rings (package
// trace). Install one via Config.Tracer, bracket the region of interest
// with TraceEnable/TraceDisable, then export with WriteChrome.
type Tracer = trace.Tracer

// NewTracer creates a tracer with one event ring per worker plus one for
// the concurrent collector. procs must match Config.Procs; slots is the
// per-ring capacity (rounded down to a power of two, 0 for the default).
func NewTracer(procs, slots int) *Tracer { return trace.NewTracer(procs, slots) }

// TraceEnable turns the global trace gate on. Enables nest: tracing stays
// on until every Enable has been matched by a TraceDisable. A runtime with
// no Tracer installed records nothing either way.
func TraceEnable() { trace.Enable() }

// TraceDisable undoes one TraceEnable.
func TraceDisable() { trace.Disable() }

// WriteChrome exports a tracer's events as Chrome trace_event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChrome(w io.Writer, t *Tracer) error { return trace.WriteChrome(w, t) }

// Speedup estimates the speedup of the runtime's recorded computation at
// each processor count in ps, by replaying the trace on the deterministic
// multiprocessor simulator. The runtime must have been created with
// Config.Record set and have completed its Run. stealCost is the simulated
// strand-migration latency in abstract work units (≈ words); 200 matches
// the experiment harness.
func Speedup(rt *Runtime, ps []int, stealCost int64) []float64 {
	trace := rt.Trace()
	if trace == nil {
		return nil
	}
	return sim.SpeedupCurve(trace, ps, stealCost)
}
