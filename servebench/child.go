package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one lbserve process serving -listen on an ephemeral port.
type child struct {
	cmd   *exec.Cmd
	addr  string
	ready time.Duration // spawn until the "serving on" line

	mu    sync.Mutex
	lines []string
	eof   chan struct{} // closed once stdout is drained
}

// spawn starts lbserve with args (plus -listen on an ephemeral
// loopback port) and waits for its "serving on" line. The child is
// killed if this process dies first.
func spawn(bin string, args []string) (*child, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("servebench: start lbserve: %w", err)
	}
	go func() {
		defer close(c.eof)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.lines = append(c.lines, line)
			c.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		c.ready = time.Since(start)
		c.addr = a
		return c, nil
	case <-c.eof:
		err := c.wait()
		return nil, fmt.Errorf("servebench: lbserve exited before serving (%v): %s", err, c.output())
	case <-time.After(120 * time.Second):
		c.kill()
		return nil, fmt.Errorf("servebench: lbserve did not start serving within 120s")
	}
}

// wait reaps the process once its stdout is drained.
func (c *child) wait() error {
	<-c.eof
	return c.cmd.Wait()
}

// kill is kill -9: the process gets no chance to flush anything.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.wait()
}

// term sends SIGTERM, lbserve's graceful drain-and-commit path, and
// waits up to 60s for a clean exit.
func (c *child) term() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("servebench: lbserve exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("servebench: lbserve did not drain within 60s of SIGTERM")
	}
}

// output returns everything the child printed so far.
func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

// cpuTime returns the child's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10ms).
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("servebench: short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("servebench: malformed /proc stat line")
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// peakRSS returns the child's peak resident set (VmHWM) in bytes.
func (c *child) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("servebench: no VmHWM in /proc status")
}
