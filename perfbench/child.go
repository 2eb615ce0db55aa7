package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// serveChild is one cmd/serve process pinned to the server CPU.
type serveChild struct {
	cmd     *exec.Cmd
	base    string
	pid     int
	started time.Time
	exited  chan struct{}
	waitErr error
}

// pinned returns the command line that runs argv on cpu, or argv itself
// when cpu is empty.
func pinned(cpu string, argv ...string) []string {
	if cpu == "" {
		return argv
	}
	return append([]string{"taskset", "-c", cpu}, argv...)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServe launches the server binary with args on cpu, logging to
// logPath. The child is killed if this process dies first.
func startServe(bin, cpu, logPath string, args []string) (*serveChild, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := pinned(cpu, append([]string{bin, "-addr", addr}, args...)...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &serveChild{cmd: cmd, base: "http://" + addr, started: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c.pid = cmd.Process.Pid
	go func() {
		c.waitErr = cmd.Wait()
		logf.Close()
		close(c.exited)
	}()
	return c, nil
}

// waitReady polls /readyz until it answers 200 and returns the time from
// exec to that answer.
func (c *serveChild) waitReady(client *http.Client, timeout time.Duration) (time.Duration, error) {
	deadline := c.started.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return 0, fmt.Errorf("server exited before ready: %v", c.waitErr)
		default:
		}
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("server not ready within %s", timeout)
}

// stop shuts the server down gracefully (SIGTERM: drain, seal the durable
// store) and waits for it to exit, killing it if it does not.
func (c *serveChild) stop() error {
	select {
	case <-c.exited:
		return c.waitErr
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return c.waitErr
	case <-time.After(30 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("server did not exit on SIGTERM; killed")
	}
}

// scrape reads the server's GET /metrics.
func (c *serveChild) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promSamples(resp.Body)
}
