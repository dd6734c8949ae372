// cmrun parses, checks and executes an extended-CMINUS program with
// the parallel interpreter. The -t flag is the paper's command-line
// thread count (§III-C): worker threads are spawned once at startup
// and released per parallel construct; N <= 0 selects one worker per
// core (runtime.GOMAXPROCS).
//
// Usage:
//
//	cmrun [-t N] [-dir path] [-timeout d] file.xc
//	cmrun -server http://gate:8080 [-retries N] file.xc
//
// The program runs on the register bytecode VM, locally and in the
// service alike.
//
// With -server, the program is shipped to a cmserved instance (or a
// cmgate fleet front) instead of running locally; -retries bounds
// client-side re-attempts after an overload shed or transport failure,
// with jittered exponential backoff honoring the server's Retry-After.
// -dir does not apply remotely (the server has no access to local
// matrix files).
//
// Exit codes: the program's own exit code on success; 1 for other
// execution failures (e.g. a busted -timeout deadline, or an internal
// error of the bytecode compiler, with its text); 2 for usage or
// compile errors; 3 for a runtime trap (shape, rc, panic); 4 when a
// resource budget was exceeded (-maxsteps, -maxcells, call depth); 5
// when the compile server sheds the request under load and the
// -retries budget is exhausted (retry with backoff instead of
// hammering a shedding server).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/server"
)

func main() {
	threads := flag.Int("t", 1, "worker threads for parallel constructs (<= 0: one per core)")
	dir := flag.String("dir", "", "directory for readMatrix/writeMatrix (default: the source file's)")
	steps := flag.Int64("maxsteps", 0, "abort after N interpreter steps (0 = unlimited)")
	cells := flag.Int64("maxcells", 0, "abort after allocating N matrix cells (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort execution after this long (0 = no deadline)")
	extFlag := flag.String("ext", "all", "comma-separated extensions to compose (matrix, transform, rc, cilk, all, none)")
	serverURL := flag.String("server", "", "execute remotely via this cmserved/cmgate base URL instead of locally")
	retries := flag.Int("retries", 0, "remote mode: re-attempts after overload sheds or transport failures")
	apiKey := flag.String("key", os.Getenv("CM_API_KEY"), "remote mode: tenant API key sent as Authorization: Bearer (default $CM_API_KEY)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmrun [-t N] [-dir path] [-server url [-retries N]] file.xc")
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmrun: %v\n", err)
		os.Exit(2)
	}
	exts, err := driver.ParseExtensions(*extFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmrun: %v\n", err)
		os.Exit(2)
	}
	d := *dir
	if d == "" {
		d = filepath.Dir(file)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *serverURL != "" {
		req := server.RunRequest{
			Head:    server.Head{Name: file, Source: string(src), Extensions: *extFlag},
			Threads: *threads, TimeoutMS: int64(*timeout / time.Millisecond),
			MaxSteps: *steps, MaxCells: *cells,
		}
		// The server's own normalisation, run here first: a request it
		// would refuse (an empty file) is not sent.
		if _, _, err := req.Resolve(); err != nil {
			fmt.Fprintf(os.Stderr, "cmrun: %v\n", err)
			os.Exit(2)
		}
		os.Exit(runRemote(ctx, strings.TrimRight(*serverURL, "/"), *apiKey, req, *retries))
	}
	res, err := driver.New().Run(ctx, driver.RunRequest{
		Name: file, Source: string(src), Exts: exts,
		Threads: *threads, MaxSteps: *steps, MaxCells: *cells, Dir: d,
	})
	for _, diag := range res.Diagnostics {
		fmt.Fprintln(os.Stderr, diag)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmrun: %v\n", err)
		if errors.Is(err, server.ErrOverloaded) {
			// A shedding compile server: distinct exit code so scripts
			// can retry with backoff rather than treat it as a program
			// failure. Local runs never hit this; it is the mapping for
			// the future remote-execution client mode.
			os.Exit(5)
		}
		var rte *interp.RuntimeError
		if errors.As(err, &rte) && rte.Trap != interp.TrapNone {
			if rte.Trap.IsResource() {
				os.Exit(4)
			}
			os.Exit(3)
		}
		os.Exit(1)
	}
	if !res.OK {
		// Diagnostics were printed above; distinguish "your program does
		// not compile" from "your program failed at runtime".
		os.Exit(2)
	}
	os.Exit(res.ExitCode)
}
