package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 on every architecture the benchmark runs on.
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time a process has used, read
// from /proc/<pid>/stat (pid 0 means this process).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the contents of
// a /proc/<pid>/stat file. The command name (field 2) is parenthesised and
// may contain spaces or parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in bytes,
// read from /proc/<pid>/status (pid 0 means this process).
func procPeakRSS(pid int) (int64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusKB(bufio.NewScanner(f), "VmHWM")
}

// parseStatusKB returns the named "Key:   <n> kB" line of a /proc status
// file, in bytes.
func parseStatusKB(sc *bufio.Scanner, key string) (int64, error) {
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}
