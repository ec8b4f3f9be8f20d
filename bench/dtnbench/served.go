package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// served is one dtnserved child process.
type served struct {
	cmd       *exec.Cmd
	addr      string // API listener
	debugAddr string // pprof and /debug/metrics listener
	wal       string
	log       bytes.Buffer // its standard error, for failure reports
	logMu     sync.Mutex
	logDone   chan struct{}
}

// servedEngineArgs are the trace and engine flags of the serve-mixed
// workload's dtnserved; engineConfig turns the same flags into the engine
// it serves.
func servedEngineArgs(traceFile string, seed int64) []string {
	return []string{"-tracefile", traceFile, "-format", "chunked", "-tl", "3h", "-seed", strconv.FormatInt(seed, 10)}
}

// startServed launches dtnserved on the trace file with a fresh
// write-ahead log, and waits until both of its listeners are up.
func startServed(bin, dir, traceFile string, seed int64, tag string) (*served, error) {
	s := &served{wal: filepath.Join(dir, "serve-"+tag+".wal"), logDone: make(chan struct{})}
	if err := os.Remove(s.wal); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := append(servedEngineArgs(traceFile, seed), "-live", "-wal", s.wal, "-wal-sync", "checkpoint",
		"-listen", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	s.cmd = exec.Command(filepath.Join(bin, "dtnserved"), args...)
	// Should this process die first, the kernel stops the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	go s.readLog(stderr, ready)
	select {
	case <-ready:
		return s, nil
	case <-s.logDone:
		s.cmd.Wait()
		return nil, fmt.Errorf("dtnserved exited before listening:\n%s", s.stderr())
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.logDone
		s.cmd.Wait()
		return nil, fmt.Errorf("dtnserved did not listen within 60s:\n%s", s.stderr())
	}
}

// readLog copies dtnserved's standard error until it closes, taking the
// two listener addresses from the start-up lines.
func (s *served) readLog(r io.Reader, ready chan<- struct{}) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.logMu.Lock()
		s.log.WriteString(line + "\n")
		s.logMu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			s.addr, _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, "pprof and runtime metrics on "); ok {
			s.debugAddr = strings.TrimSuffix(rest, "/debug/")
			close(ready)
		}
	}
}

func (s *served) stderr() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// cpuSeconds reads the process's user+system time from /proc, in clock
// ticks of 1/100 s (the Linux USER_HZ).
func (s *served) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / 100, nil
}

// stop shuts dtnserved down with SIGTERM, the way its operators do, and
// waits for it: a clean shutdown seals the log with a final checkpoint.
func (s *served) stop() (*os.ProcessState, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case <-s.logDone:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-s.logDone
	}
	err := s.cmd.Wait()
	if err == nil && !strings.Contains(s.stderr(), "shut down cleanly") {
		err = errors.New("no clean-shutdown line")
	}
	if err != nil {
		return s.cmd.ProcessState, fmt.Errorf("dtnserved: %w:\n%s", err, s.stderr())
	}
	return s.cmd.ProcessState, nil
}
