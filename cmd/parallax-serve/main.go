// Command parallax-serve runs the multi-tenant training service: a
// long-lived daemon hosting many concurrent training jobs, each with its
// own parameter servers. Jobs are submitted over HTTP as
// jobspec JSON documents, scheduled against the cluster's GPU
// inventory with per-tenant fair share, and observable live — step
// streams as NDJSON, cluster and per-job metrics as Prometheus text.
//
// Usage:
//
//	parallax-serve [-listen :7600] [-machines 2] [-gpus 2]
//
//	# submit a job and follow it:
//	curl -s localhost:7600/jobs -d '{"tenant":"acme","spec":{"steps":50}}'
//	curl -N localhost:7600/jobs/job-000001/steps
//
// SIGINT/SIGTERM drain: every running job is cancelled at its next
// step boundary, the HTTP server shuts down, and the process exits.
// See docs/OPERATIONS.md for the full API and metrics catalog.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parallax/internal/buildinfo"
	"parallax/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the service behind its process boundary: it serves until ctx
// is cancelled, then drains, and returns the exit status (2 for a bad
// flag, 1 for a failure, 0 for -h and after a drain).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parallax-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":7600", "HTTP listen address")
	machines := fs.Int("machines", 2, "cluster machines (admission bound)")
	gpus := fs.Int("gpus", 2, "GPUs per machine (admission bound)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get())
		return 0
	}

	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(err error) int { logger.Print(err); return 1 }
	svc, err := serve.New(*machines, *gpus)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{Handler: serve.Handler(svc)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Printf("parallax-serve %s listening on %s (%d machines x %d GPUs)",
		buildinfo.Version, ln.Addr(), *machines, *gpus)

	code := 0
	select {
	case err := <-errCh:
		code = fail(err)
	case <-ctx.Done():
		logger.Print("draining: cancelling jobs and shutting down")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		code = fail(fmt.Errorf("job drain: %w", err))
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	return code
}
