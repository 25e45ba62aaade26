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
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parallax/internal/buildinfo"
	"parallax/internal/serve"
)

func main() {
	listen := flag.String("listen", ":7600", "HTTP listen address")
	machines := flag.Int("machines", 2, "cluster machines (admission bound)")
	gpus := flag.Int("gpus", 2, "GPUs per machine (admission bound)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	svc, err := serve.New(*machines, *gpus)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Addr: *listen, Handler: serve.Handler(svc)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("parallax-serve %s listening on %s (%d machines x %d GPUs)",
		buildinfo.Version, *listen, *machines, *gpus)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("draining: cancelling jobs and shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("job drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
}
