package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ledger counts checked operations. Every pass, request and audit the
// benchmark makes goes through check, so a wrong result can only ever
// raise failed — fail_frac is failed/attempted.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

// maxMessages caps the failure messages a run keeps for its report.
const maxMessages = 8

// check records one attempted operation and reports whether it passed:
// err == nil. A failure is counted and its message kept for the report.
func (l *ledger) check(what string, err error) bool {
	l.attempted.Add(1)
	if err == nil {
		return true
	}
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.msgs) < maxMessages {
		l.msgs = append(l.msgs, what+": "+err.Error())
	}
	l.mu.Unlock()
	return false
}

func (l *ledger) frac() float64 {
	a := l.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(l.failed.Load()) / float64(a)
}

func (l *ledger) messages() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.msgs)
}

// metric is one reported number with the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type report struct{ m map[string]metric }

func newReport() *report { return &report{m: map[string]metric{}} }

// set records a declared metric; n is the number of samples behind it (0
// when it is a single reading or a count) and note says how it was taken.
func (r *report) set(name string, v float64, n int, note string) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.m[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

func (r *report) print(w io.Writer, names []metricDef) {
	for _, d := range names {
		m := r.m[d.name]
		line := fmt.Sprintf("%-28s %14.6g %-6s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result(l *ledger, names []metricDef) resultLine {
	out := resultLine{
		Correct:   l.failed.Load() == 0,
		Attempted: l.attempted.Load(),
		Failed:    l.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range names {
		m := r.m[d.name]
		out.Metrics[d.name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// ---- statistics ----

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// pct is the nearest-rank q-quantile (0 < q <= 1) of xs.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tail is the highest percentile of xs with at least tailBeyond samples
// above it: the (n-tailBeyond)-th smallest value. It returns the value and
// that percentile; with too few samples it is the maximum (percentile 100).
func tail(xs []float64) (v, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	k := len(s) - tailBeyond
	if k < 1 {
		return s[len(s)-1], 100
	}
	return s[k-1], 100 * float64(k) / float64(len(s))
}

const tailBeyond = 10

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
