package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// serveControl lets tests drive the serve loop: ready receives the bound
// address once listening (d is the served designer by then); closing stop
// triggers the same graceful shutdown a SIGINT would.
type serveControl struct {
	ready chan string
	stop  chan struct{}
	d     *designer.Designer
}

// cmdServe runs the designer as a JSON-over-HTTP service until SIGINT or
// SIGTERM, then shuts down gracefully.
func cmdServe(args []string) error { return runServe(args, nil) }

func runServe(args []string, ctl *serveControl) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	df := commonFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:0 for an ephemeral port)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown timeout")
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	maxSessions := fs.Int("max-sessions", 1024, "global live-session cap (LRU eviction past it)")
	sessionTTL := fs.Duration("session-ttl", 30*time.Minute, "idle timeout before a session is reclaimed (0 disables)")
	poolSize := fs.Int("pool-size", 0, "concurrently executing CPU-heavy requests (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 64, "admission queue depth per priority class (full queue answers 429)")
	tenantQuota := fs.Int("tenant-quota", 0, "live-session cap per X-Tenant tenant (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := df.open()
	if err != nil {
		return err
	}
	opts := []serve.Option{
		serve.WithMaxSessions(*maxSessions),
		serve.WithSessionTTL(*sessionTTL),
		serve.WithPoolSize(*poolSize),
		serve.WithQueueDepth(*queueDepth),
		serve.WithTenantQuota(*tenantQuota),
	}
	d.SetWorkers(*workers)
	if ctl != nil {
		ctl.d = d
	}
	return serveUntilStopped(serve.New(d, opts...), *addr, *grace, ctl, func(addr string) {
		fmt.Fprintf(os.Stderr, "dbdesigner: serving the design API on http://%s/api/v1/\n", addr)
	})
}

// serveUntilStopped starts srv on addr, announces the bound address and
// hands it to ctl.ready, waits for SIGINT/SIGTERM or ctl.stop, then shuts
// srv down gracefully within grace.
func serveUntilStopped(srv *serve.Server, addr string, grace time.Duration, ctl *serveControl, announce func(addr string)) error {
	if err := srv.Start(addr); err != nil {
		return err
	}
	announce(srv.Addr())
	if ctl != nil && ctl.ready != nil {
		ctl.ready <- srv.Addr()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var stop <-chan struct{}
	if ctl != nil {
		stop = ctl.stop
	}
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "dbdesigner: %v received, shutting down...\n", sig)
	case <-stop:
	}
	shCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "dbdesigner: shutdown complete")
	return nil
}
