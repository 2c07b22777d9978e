package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
)

// server is one prodigy-serve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// httpc is the benchmark's only HTTP client: one closed-loop client on
// one connection.
var httpc = &http.Client{Transport: &http.Transport{
	MaxConnsPerHost:     1,
	MaxIdleConnsPerHost: 1,
	DisableCompression:  true,
}}

// startServer boots prodigy-serve on cacheDir with one simulation worker
// and the given extra flags, and waits until /healthz answers 200.
func (b *bench) startServer(cacheDir string, extra ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(filepath.Join(b.runDir, fmt.Sprintf("serve-%d.log", len(b.servers))))
	if err != nil {
		return nil, err
	}
	defer func() { _ = logf.Close() }() // the child keeps its own descriptor
	args := append([]string{"-addr", addr, "-cache-dir", cacheDir, "-j", "1", "-access-log=false"}, extra...)
	s := &server{cmd: exec.Command(b.serveBin, args...), url: "http://" + addr, done: make(chan error, 1)}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its servers behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting prodigy-serve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	b.mu.Lock()
	b.servers = append(b.servers, s)
	b.mu.Unlock()
	for {
		resp, err := httpc.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			_ = resp.Body.Close()                 // read-only; drained above
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("prodigy-serve exited before becoming healthy: %v (log in %s)", err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			return nil, fmt.Errorf("prodigy-serve not healthy after a minute")
		}
	}
}

// cpu is the server's CPU time so far: the sum of its threads'
// se.sum_exec_runtime, which has sub-microsecond resolution (the tick
// counts in /proc/<pid>/stat have 10 ms).
func (s *server) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("server cpu: %w", err)
	}
	var total float64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "sched"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "se.sum_exec_runtime"); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimLeft(rest, " :")), 64)
				if err != nil {
					return 0, fmt.Errorf("server cpu: %q: %w", line, err)
				}
				total += v
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("server cpu: no se.sum_exec_runtime under %s", dir)
	}
	return time.Duration(total * float64(time.Millisecond)), nil
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes more than 30 s. Stopping twice is harmless.
func (s *server) stop() error {
	if s.cmd.ProcessState != nil {
		return nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling prodigy-serve: %w", err)
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("prodigy-serve exit: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // the drain hung; the wait below reports it
		<-s.done
		return fmt.Errorf("prodigy-serve did not drain within 30s")
	}
}

// stopServers stops every server the run started.
func (b *bench) stopServers() {
	b.mu.Lock()
	servers := b.servers
	b.servers = nil
	b.mu.Unlock()
	for _, s := range servers {
		if err := s.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	// ttfb is request start to the first response byte; total to the
	// end of the body.
	ttfb, total time.Duration
}

// do sends one request and reads the whole response, inside a "serve"
// span.
func (b *bench) do(parent int, method, url string, body []byte) (reply, error) {
	id := b.tr.begin(parent, "serve", method+" "+url[len("http://"):], "")
	defer b.tr.finish(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	var first time.Time
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))
	start := time.Now()
	resp, err := httpc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only; fully read below
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data, ttfb: first.Sub(start), total: time.Since(start)}, nil
}

// replays runs n closed-loop warm replays of spec, each of which must
// come entirely from the store and return exactly the lines in want
// (compared order-insensitively: a live sweep streams in completion
// order, a replay in grid order), byte-identical from one replay to the
// next.
func (b *bench) replays(url string, spec farm.Spec, want [][]byte, n int, parent int) (lat, ttfb []float64, bytesPer int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	wantSorted := sortedLines(want)
	var first []byte
	for i := 0; i < n; i++ {
		r, err := b.do(parent, http.MethodPost, url+"/sweeps", body)
		if err != nil {
			return nil, nil, 0, err
		}
		switch {
		case r.status != http.StatusOK:
			b.op(fmt.Errorf("replay: status %d: %s", r.status, r.body))
			continue
		case r.header.Get("X-Sweep-Cached") != strconv.Itoa(len(want)):
			b.op(fmt.Errorf("replay: %s of %d cells cached", r.header.Get("X-Sweep-Cached"), len(want)))
			continue
		case first == nil && !slices.Equal(sortedLines(splitLines(r.body)), wantSorted):
			b.op(fmt.Errorf("replay: lines differ from the stored results"))
			continue
		case first != nil && !bytes.Equal(r.body, first):
			b.op(fmt.Errorf("replay %d: body differs from the first replay", i))
			continue
		}
		b.op(nil)
		if first == nil {
			first = r.body
		}
		lat = append(lat, ms(r.total))
		ttfb = append(ttfb, ms(r.ttfb))
	}
	if len(lat) == 0 {
		return nil, nil, 0, fmt.Errorf("no replay succeeded")
	}
	return lat, ttfb, len(first), nil
}

// replayStats summarizes a run of warm replays.
type replayStats struct {
	// lat and ttfb are each replay's total and first-byte times (ms).
	lat, ttfb []float64
	bytes     int
	// cpuPer is the server's CPU time per replay.
	cpuPer time.Duration
}

// timedReplays runs n warm replays against srv (see replays) and
// measures the server's CPU time over them.
func (b *bench) timedReplays(srv *server, spec farm.Spec, want [][]byte, n int, parent int) (replayStats, error) {
	c0, err := srv.cpu()
	if err != nil {
		return replayStats{}, err
	}
	var st replayStats
	st.lat, st.ttfb, st.bytes, err = b.replays(srv.url, spec, want, n, parent)
	if err != nil {
		return replayStats{}, err
	}
	c1, err := srv.cpu()
	if err != nil {
		return replayStats{}, err
	}
	st.cpuPer = (c1 - c0) / time.Duration(n)
	return st, nil
}

// replayPhase serves a workload's own finished results back through
// prodigy-serve: it writes the lines into a fresh durable store under
// the keys the server derives, boots a server on it (extra flags select
// its harness configuration), and runs n warm replays of spec.
func (b *bench) replayPhase(cfg exp.Config, spec farm.Spec, raw [][]byte, lines []exp.RunSummary, n int, extra ...string) (replayStats, error) {
	root := b.tr.begin(0, "bench", "replay-phase", "")
	defer b.tr.finish(root)
	keys, err := cellKeys(cfg, lines)
	if err != nil {
		return replayStats{}, err
	}
	dir := filepath.Join(b.runDir, "replay-cache")
	st, err := farm.OpenStore(dir)
	if err != nil {
		return replayStats{}, err
	}
	for i, k := range keys {
		if err := st.Put(k, raw[i]); err != nil {
			_ = st.Close() // the Put error is the one to report
			return replayStats{}, err
		}
	}
	if err := st.Close(); err != nil {
		return replayStats{}, err
	}
	srv, err := b.startServer(dir, extra...)
	if err != nil {
		return replayStats{}, err
	}
	rs, err := b.timedReplays(srv, spec, raw, n, root)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return rs, err
}
