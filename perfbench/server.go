package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running "gea serve" process.
type server struct {
	cmd  *exec.Cmd
	pid  int
	base string
	// setup runs from launching the process to its first 200 on
	// /healthz: corpus load, cleaning, the dense build and the catalog.
	setup time.Duration
	done  chan error
	log   *os.File
	once  sync.Once
}

// live tracks started servers so an early exit still stops them.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

// startupLimit bounds one launch; the full corpus loads in seconds.
const startupLimit = 150 * time.Second

// launch starts "gea serve" over store on addr and waits for its first
// 200 on /healthz, polling every 5 ms.
func launch(geaBin, store, addr string, flags []string, logPath string) (*server, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"serve", "-in", store, "-addr", addr}, flags...)
	cmd := exec.Command(geaBin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, base: "http://" + addr, done: make(chan error, 1), log: logFile}
	go func() { s.done <- cmd.Wait() }()
	live.Lock()
	live.m[s] = true
	live.Unlock()

	poll := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := poll.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("gea serve exited during start-up (%v); log %s: %s", err, logPath, tail(logPath))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > startupLimit {
			s.stop()
			return nil, fmt.Errorf("gea serve not healthy after %v; log %s", startupLimit, logPath)
		}
	}
}

// stop sends SIGTERM, lets the server drain, and kills it if it has not
// exited after 20 s. The first call waits for the process to end; later
// calls return at once.
func (s *server) stop() {
	s.once.Do(func() {
		live.Lock()
		delete(live.m, s)
		live.Unlock()
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// stopAll stops every server still running.
func stopAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// portFree reports whether addr can be bound.
func portFree(addr string) bool {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// freshStore copies the cached corpus store to a new directory under the
// run directory, so every launch starts from the same bytes.
func freshStore(runDir, src, name string) (string, error) {
	dst := filepath.Join(runDir, name)
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := copyTree(src, dst); err != nil {
		return "", err
	}
	return dst, nil
}
