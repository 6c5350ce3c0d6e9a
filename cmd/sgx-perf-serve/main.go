// Command sgx-perf-serve is the always-on analysis service: a long-lived
// daemon that accepts recorded traces over HTTP, serves analyser
// reports, their statistics, hybrid lint reports and live snapshots
// from them, and caches every computed artifact content-addressed by the
// trace's chunk hashes — so a repeat request for unchanged content
// computes nothing, and a report after an append is one fold of the
// grown trace.
//
// Every response is an api/v1 wire document in the canonical
// serialisation; GET /v1/traces/{id}/report is byte-for-byte what
// `sgx-perf-analyze -json` prints for the same trace.
//
// Usage:
//
//	sgx-perf-serve -addr 127.0.0.1:7910
//	sgx-perf-serve -addr 127.0.0.1:0 -addr-file /tmp/serve.addr trace.evdb
//
// Endpoints:
//
//	POST /v1/traces[?id=NAME]          upload an evstore trace stream
//	GET  /v1/traces                    list registered traces
//	GET  /v1/traces/{id}               one trace's info (content key, counts, seq)
//	POST /v1/traces/{id}/append        append a delta trace stream
//	GET  /v1/traces/{id}/report        full analyser report (?enclave=N)
//	GET  /v1/traces/{id}/stats         the report's statistics and content key
//	GET  /v1/traces/{id}/lint          hybrid lint report (embedded EDL; ?source=1 adds the source passes)
//	GET  /v1/traces/{id}/snapshot      live snapshot; ?seq=N long-polls for a change
//	GET  /v1/traces/{id}/live          server-sent-events snapshot stream
//	GET  /v1/report[?trace=ID]         report alias (sole trace when unambiguous)
//	GET  /v1/metrics                   artifact-cache and request counters
//	GET  /v1/healthz                   liveness probe
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgx-perf-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:7910", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		cacheCap = flag.Int("cache", 0, "artifact cache capacity in entries (0 = default)")
		maxMB    = flag.Int64("max-upload-mb", 0, "upload/append body limit in MiB (0 = default 256)")
		poll     = flag.Duration("poll-timeout", 0, "long-poll wait bound (0 = default 25s)")
		srcRoot  = flag.String("source-root", "", "enable ?source=1 lint requests: run the source passes over the Go tree at this root")
		srcDirs  = flag.String("source-dirs", "", "comma-separated root-relative directories limiting the source passes (default: the whole tree)")
	)
	flag.Parse()
	if *srcDirs != "" && *srcRoot == "" {
		return fmt.Errorf("-source-dirs needs -source-root")
	}

	opts := serve.Options{
		CacheCapacity:  *cacheCap,
		MaxUploadBytes: *maxMB << 20,
		PollTimeout:    *poll,
		SourceRoot:     *srcRoot,
	}
	for _, d := range strings.Split(*srcDirs, ",") {
		if d = strings.TrimSpace(d); d != "" {
			opts.SourceDirs = append(opts.SourceDirs, d)
		}
	}
	s := serve.New(opts)

	// Positional arguments are trace files to pre-register, each under
	// its basename (sans extension).
	for _, path := range flag.Args() {
		tr, err := events.NewTrace()
		if err != nil {
			return err
		}
		if err := tr.LoadFile(path); err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := s.Preload(id, tr); err != nil {
			return fmt.Errorf("register %s: %w", path, err)
		}
		fmt.Printf("registered %s as %q\n", path, id)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("sgx-perf-serve listening on %s\n", ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}

	srv := &http.Server{Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("sgx-perf-serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
