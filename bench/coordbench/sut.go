package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sut is a running coordbotd process, observed from outside: HTTP for
// what a client sees, /proc/<pid> for what it costs.
type sut struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  bytes.Buffer
	spawned time.Time
}

// spawnDaemon starts bin on a free loopback port and waits until
// /healthz answers.
func spawnDaemon(ctx context.Context, bin string, cfg sutConfig) (*sut, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &sut{base: "http://" + addr, spawned: time.Now()}
	s.cmd = exec.Command(bin, cfg.flags(addr)...)
	s.cmd.Stderr = &s.stderr
	if err := startSUT(s.cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	probe := newConn()
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, err := get(ctx, probe, s.base+"/healthz", nil); err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("daemon not healthy after 10s: %s", s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if a
// graceful shutdown takes more than 10 s.
func (s *sut) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant once we asked it to stop
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func (s *sut) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 14 {
		return 0, fmt.Errorf("unparseable /proc stat: %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times: %q %q", f[11], f[12])
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 for every architecture
// Go runs on.
const clockTicks = 100

// peakRSSMB is the process's resident-set high-water mark.
func (s *sut) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// newConn returns a client that owns exactly one keep-alive connection,
// so requests issued through it reach the daemon in order.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// get issues a GET and, when out is non-nil and the status is 200,
// decodes the JSON body into it. The body is always drained so the
// connection is reused.
func get(ctx context.Context, c *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	return do(c, req, out)
}

func post(ctx context.Context, c *http.Client, url, contentType string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return do(c, req, nil)
}

func do(c *http.Client, req *http.Request, out any) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", req.URL.Path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
