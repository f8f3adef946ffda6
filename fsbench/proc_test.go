package main

import (
	"bufio"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (fours (hade) d) S 1 4242 4242 0 -1 4194560 2203 0 0 0 150 37 0 0 20 0 9 0 12345 1000 200 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 187 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("no command name here"); err == nil {
		t.Error("stat without a command name parsed")
	}
	if _, err := parseStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("truncated stat parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tfourshadesd\nVmPeak:\t  800000 kB\nVmHWM:\t   15436 kB\nVmRSS:\t   12000 kB\n"
	got, err := parseStatusKB(bufio.NewScanner(strings.NewReader(status)), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if got != 15436*1024 {
		t.Errorf("VmHWM = %d, want %d", got, 15436*1024)
	}
	if _, err := parseStatusKB(bufio.NewScanner(strings.NewReader("Name:\tx\n")), "VmHWM"); err == nil {
		t.Error("missing key parsed")
	}
	if _, err := parseStatusKB(bufio.NewScanner(strings.NewReader("VmHWM:\t12 MB\n")), "VmHWM"); err == nil {
		t.Error("wrong unit parsed")
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	end := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(end) {
	}
	cpu, err := procCPU(0)
	if err != nil || cpu < 0 {
		t.Fatalf("procCPU(self) = %v, %v", cpu, err)
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Fatalf("procPeakRSS(self) = %v, %v", rss, err)
	}
}
