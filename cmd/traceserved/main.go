// Command traceserved serves trace-message selection over HTTP:
//
//	traceserved                         # listen on 127.0.0.1:8344
//	traceserved -addr :0                # any free port (printed on stdout)
//	traceserved -max-inflight 8 -timeout 10s -cache-capacity 128
//
// POST /select with a scenario spec (the tracesel -export-toy / -export-t2
// / -export-synth JSON, optionally with "method", "width", "noPack",
// "maxCandidates", "workers", "keepCandidates" fields alongside) returns
// the selection as JSON; "method" accepts every registered strategy name
// (exhaustive, knapsack, greedy, max-coverage, branch-bound, reconstruct),
// and an option the method cannot honor is a 422, not silently ignored.
// "workers" is an upper bound, clamped to GOMAXPROCS. GET /healthz answers ok; GET /metrics snapshots the
// service's observability registry.
//
// POST /select/batch runs many option sets against one scenario in a
// single request (capped by -max-batch); duplicate option sets cost one
// scan. Selections are answered from a content-addressed result store
// first — give it -store-dir to persist results across restarts.
//
// POST /reconstruct answers the debug-side question: given the scenario,
// the "traced" signal set, and the "observed" projection read back from
// the buffer (a list of {"name","index"} entries), how many executions
// remain consistent with the observation? The reply carries the exact
// count (or a "beam"-mode lower bound), the per-step survivor profile,
// and up to "maxWitnesses" explicit witness executions.
//
// Overload is shed with 429 (never queued), request bodies are capped,
// selections run under a per-request timeout, and SIGINT/SIGTERM drains
// in-flight requests before exiting ("stopped" on stdout marks a clean
// drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tracescale/internal/obs"
	"tracescale/internal/pipeline"
	"tracescale/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "traceserved:", err)
		os.Exit(1)
	}
}

// errUsage signals a bad invocation: usage was already printed, exit 2.
var errUsage = fmt.Errorf("usage")

// run serves until ctx is cancelled (the signal handler's job) or the
// listener fails, then drains in-flight requests. main is a thin exit-code
// shim around it, so tests drive the full daemon in-process.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("traceserved", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8344", "listen address (use :0 for any free port)")
		inflight  = fs.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent selections before 429")
		maxBody   = fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body cap in bytes")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request selection timeout (0 = none)")
		cacheCap  = fs.Int("cache-capacity", 64, "session cache capacity (0 = unbounded)")
		drainWait = fs.Duration("drain", 10*time.Second, "shutdown grace for in-flight requests")
		storeDir  = fs.String("store-dir", "", "directory to spill the result store to (empty = memory only)")
		storeCap  = fs.Int("store-capacity", 512, "in-memory result store capacity (0 = unbounded)")
		maxBatch  = fs.Int("max-batch", serve.DefaultMaxBatch, "option sets per /select/batch request")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return errUsage
	}
	reg := obs.NewRegistry()
	store, err := pipeline.NewResultStore(reg, *storeCap, *storeDir)
	if err != nil {
		return err
	}
	handler := serve.NewHandler(serve.Config{
		Cache:          pipeline.NewCacheObs(reg, *cacheCap),
		Registry:       reg,
		MaxInFlight:    *inflight,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		Store:          store,
		MaxBatch:       *maxBatch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	select {
	case err := <-served:
		return err // the listener died out from under us
	case <-ctx.Done():
	}

	// ctx is already done here — deriving the drain deadline from it would
	// expire instantly and abort the graceful drain it exists to bound.
	//lint:ignore ctxflow the drain must outlive the cancelled serve context; drainWait bounds it instead
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "stopped")
	return nil
}
