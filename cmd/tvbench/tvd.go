package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one tvd process serving on a loopback port. A goroutine
// waits on the process from start to exit; every stop method waits for
// it, so no process outlives the daemon value that started it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{}
	err    error // the process's exit status, valid once done is closed
}

// startDaemon execs tvd with the workloads' flags (three corners, durable
// state in stateDir, no request log) and otherwise production defaults.
// It does not wait for the listener.
func startDaemon(bin, stateDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-corners", "slow,typ,fast", "-state-dir", stateDir, "-quiet")
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before tvd binds; waitStatus then sees tvd exit and the
// caller reports the failed start.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitStatus polls GET path every 2ms until it answers 200, the process
// exits, or the timeout passes.
func (d *daemon) waitStatus(c *client, path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if st, _, err := c.get(d.base + path); err == nil && st == http.StatusOK {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("tvd exited before %s answered 200: %v: %s", path, d.err, tail(d.stderr.Bytes()))
		case <-c.ctx.Done():
			return c.ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tvd %s not 200 within %v", path, timeout)
		}
	}
}

// term sends SIGTERM (drain, snapshot every dirty design, exit 0) and
// waits for the exit; a daemon still running after a minute is killed.
func (d *daemon) term() error {
	// A process that already exited reports os.ErrProcessDone here; the
	// wait below then returns its real exit status.
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("tvd did not exit within a minute of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("tvd exit after SIGTERM: %v: %s", d.err, tail(d.stderr.Bytes()))
	}
	return nil
}

// kill sends SIGKILL and waits for the exit. Safe to call more than once
// and after the process has exited.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.done
}

// maxRSS is the exited process's peak resident set in MiB.
func (d *daemon) maxRSS() float64 { return maxRSS(d.cmd) }

func maxRSS(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}

// client is the benchmark's HTTP client: one keep-alive connection to the
// daemon, for the workload's one closed-loop caller.
type client struct {
	ctx context.Context
	hc  *http.Client
	tr  *http.Transport
}

// newClient returns a client whose requests stop when ctx is done.
func newClient(ctx context.Context) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{ctx: ctx, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

// do sends one request and reads the whole response body.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(url string) (int, []byte, error) {
	return c.do(http.MethodGet, url, nil)
}

// forget drops idle connections to a daemon that is about to stop, so the
// next request dials the restarted process instead of a dead socket.
func (c *client) forget() { c.tr.CloseIdleConnections() }
