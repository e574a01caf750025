package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// serverProc is one udao-server process with its own state directory.
type serverProc struct {
	cmd    *exec.Cmd
	dir    string
	url    string
	log    *os.File
	exited chan struct{}
	err    error // set before exited closes
	start  time.Time
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the binary in a fresh state directory under root
// with the shipped defaults plus args, and waits until /readyz answers 200.
// The returned start time is taken just before the process is started.
func startServer(bin, root string, args []string) (*serverProc, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		p, err := launch(bin, root, args)
		if err != nil {
			return nil, err
		}
		if err = p.waitReady(60 * time.Second); err == nil {
			return p, nil
		}
		last = err
		p.stop()
	}
	return nil, last
}

func launch(bin, root string, args []string) (*serverProc, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "srv-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark is killed, its server goes too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	p := &serverProc{cmd: cmd, dir: dir, url: "http://" + addr, log: log, exited: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// waitReady polls /readyz until it answers 200, the process exits, or the
// timeout passes.
func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("udao-server exited before ready: %v (log %s)", p.err, tail(filepath.Join(p.dir, "server.log")))
		default:
		}
		resp, err := hc.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("udao-server not ready within the timeout")
}

// stop terminates the process, waits until it has exited and removes its
// state directory.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
	os.RemoveAll(p.dir)
}

// tail returns the last few hundred bytes of a file, for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(b)
}
