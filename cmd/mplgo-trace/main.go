// Command mplgo-trace summarizes a Chrome trace_event JSON file produced
// by the runtime's tracer (mplgo-bench -exp trace, or mpl.WriteChrome):
// event totals per kind, steal and entangled-read rates, a pin-lifetime
// histogram, and per-phase LGC/CGC latency statistics.
//
// Usage:
//
//	mplgo-trace trace.json
//	mplgo-bench -exp trace -trace - | mplgo-trace -
//
// The exit status doubles as a validator: a file that is not a valid
// trace_event export of this runtime (missing traceEvents, events without
// the raw-record args, unknown event kinds) exits nonzero, which is what
// the CI trace job asserts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mplgo/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mplgo-trace <trace.json|->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	path := flag.Arg(0)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mplgo-trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	s, err := trace.Summarize(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mplgo-trace: invalid trace %s: %v\n", path, err)
		os.Exit(1)
	}
	s.Format(os.Stdout)
}
