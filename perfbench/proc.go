package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every mainstream Linux build; reading sysconf would need
// cgo.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name sits in parentheses and may itself
// contain spaces or parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (int64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ") " come fields 3.. of proc(5): state is field 3, utime 14,
	// stime 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return utime + stime, nil
}

// cpuSeconds reads a process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(b)
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return float64(t) / clockTicks, nil
}

// parseStatusKB returns a "Key:   123 kB" line's value from the
// contents of /proc/<pid>/status or /proc/meminfo.
func parseStatusKB(b []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("%s: not found", key)
}

// statusMB reads one memory line of /proc/<pid>/status (VmHWM, VmRSS)
// in MB (10^6 bytes).
func statusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, key)
	if err != nil {
		return 0, err
	}
	return float64(kb) * 1024 / 1e6, nil
}

// memAvailableMB reads MemAvailable from /proc/meminfo, in MB.
func memAvailableMB() (float64, error) {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "MemAvailable")
	if err != nil {
		return 0, err
	}
	return float64(kb) * 1024 / 1e6, nil
}

// loadAvg returns the first three fields of /proc/loadavg.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// isGeaServe reports whether a NUL-separated /proc/<pid>/cmdline is a
// "gea serve" process.
func isGeaServe(cmdline []byte) bool {
	args := strings.Split(strings.TrimRight(string(cmdline), "\x00"), "\x00")
	return len(args) >= 2 && filepath.Base(args[0]) == "gea" && args[1] == "serve"
}

// runningGeaServes lists the pids of every "gea serve" process visible
// in /proc.
func runningGeaServes() []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		if isGeaServe(b) {
			pids = append(pids, pid)
		}
	}
	return pids
}
