// ipra-served is the long-lived compilation daemon: it keeps the
// phase-1/summary cache and per-program incremental build directories hot
// across requests and serves concurrent whole-program builds to many
// clients over a Unix socket (and optionally TCP).
//
//	ipra-served -socket /tmp/ipra.sock -state ~/.ipra-served &
//	mcc -remote unix:/tmp/ipra.sock -config C -exe prog.exe src/*.mc
//
// Identical requests share one build through one in-memory table of
// running and finished builds (-result-cache), and distinct requests
// pass a bounded admission queue — beyond -concurrency running plus
// -queue waiting, clients get 503 with a Retry-After hint. Every
// cache is guarded by the toolchain fingerprint, so a daemon built from
// different compiler sources re-validates and rebuilds rather than
// serving stale artifacts. SIGINT/SIGTERM drain gracefully: in-flight
// builds finish and deliver before the listeners close.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipra"
	"ipra/internal/cliutil"
	"ipra/internal/served"
)

func main() {
	var (
		socket      = flag.String("socket", "ipra-served.sock", "unix socket path to listen on")
		httpAddr    = flag.String("http", "", "optional TCP listen address (host:port) served alongside the socket")
		stateDir    = flag.String("state", "", "root directory for per-program incremental build state (empty: stateless in-memory builds)")
		concurrency = flag.Int("concurrency", 0, "max concurrent builds (0 = one per CPU)")
		queue       = flag.Int("queue", 0, "max builds waiting for a slot before 503 (0 = 4x concurrency)")
		cacheSize   = flag.Int("result-cache", 128, "in-memory result cache entries, running builds included")
		profProgs   = flag.Int("profile-programs", 0, "max in-memory per-program profile aggregates (0 = 128)")
		drainWait   = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight builds")
	)
	common := cliutil.New("ipra-served")
	common.Register(flag.CommandLine, cliutil.FlagTelemetry|cliutil.FlagJobs)
	flag.Parse()
	if err := common.Start(); err != nil {
		common.Fatal(err)
	}

	srv := served.New(served.Options{
		StateDir:           *stateDir,
		Concurrency:        *concurrency,
		QueueDepth:         *queue,
		Jobs:               common.Jobs,
		ResultCacheEntries: *cacheSize,
		ProfilePrograms:    *profProgs,
		Tracer:             common.Tracer(),
		Log:                os.Stderr,
	})

	listeners := make([]net.Listener, 0, 2)
	ul, err := served.ListenUnix(*socket)
	if err != nil {
		common.Fatal(err)
	}
	listeners = append(listeners, ul)
	fmt.Fprintf(os.Stderr, "ipra-served: listening on unix:%s (fingerprint %s)\n", *socket, ipra.ToolchainFingerprint())
	if *httpAddr != "" {
		tl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			common.Fatal(err)
		}
		listeners = append(listeners, tl)
		fmt.Fprintf(os.Stderr, "ipra-served: listening on http://%s\n", tl.Addr())
	}

	errc := make(chan error, len(listeners))
	for _, l := range listeners {
		go func(l net.Listener) { errc <- srv.Serve(l) }(l)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ipra-served: %v: draining\n", sig)
	case err := <-errc:
		if err != nil {
			common.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		common.Fatal(err)
	}
	os.Remove(*socket)
	if ferr := common.Finish(); ferr != nil {
		common.Fatal(ferr)
	}
}
