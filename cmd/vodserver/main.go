// Command vodserver runs a live VoD deployment: one video server per GRNET
// site on consecutive localhost ports, a synthetic title library distributed
// round-robin, SNMP polling of delivered traffic, and (optionally) the
// paper's web interface modules over HTTP. It prints each endpoint and
// serves until interrupted.
//
// Usage:
//
//	vodserver -base-port 9100 -titles 6 -web-port 9090 -admin-token secret
//
// Connect with cmd/vodclient; browse http://127.0.0.1:9090/titles.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvod"
	"dvod/internal/media"
)

// config carries the parsed flags.
type config struct {
	basePort     int
	numTitles    int
	titleBytes   int64
	clusterBytes int64
	snmpInterval time.Duration
	webPort      int
	adminToken   string
	topologyPath string
	mergeWindow  int
	dataDir      string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.basePort, "base-port", 9100, "first TCP port; node Ui listens on base-port+i-1 (0 = ephemeral)")
	flag.IntVar(&cfg.numTitles, "titles", 6, "synthetic titles to generate")
	flag.Int64Var(&cfg.titleBytes, "title-bytes", 1<<20, "size of each title")
	flag.Int64Var(&cfg.clusterBytes, "cluster-bytes", 128<<10, "cluster size c")
	flag.DurationVar(&cfg.snmpInterval, "snmp-interval", 30*time.Second, "statistics refresh period")
	flag.IntVar(&cfg.webPort, "web-port", 0, "serve the web interface modules on this port (0 = disabled)")
	flag.StringVar(&cfg.adminToken, "admin-token", "", "bearer token for the limited-access module")
	flag.StringVar(&cfg.topologyPath, "topology", "", "topology JSON file (default: the GRNET backbone)")
	flag.IntVar(&cfg.mergeWindow, "merge-window", 0, "stream-merging window in clusters (0 = one stream per session)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "back every disk with block files under this directory (empty = in-memory); enables the kernel sendfile path on Linux")
	flag.Parse()

	dep, err := setup(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodserver:", err)
		os.Exit(1)
	}
	defer dep.Close()
	fmt.Println("\nserving; press Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// deployment is a running vodserver instance.
type deployment struct {
	Service *dvod.Service
	WebAddr string
	webLn   net.Listener
}

// Close shuts everything down.
func (d *deployment) Close() {
	if d.webLn != nil {
		_ = d.webLn.Close()
	}
	_ = d.Service.Close()
}

// setup builds, starts, and populates the deployment, printing endpoints to
// w. It is separated from main for testability.
func setup(w io.Writer, cfg config) (*deployment, error) {
	spec := dvod.GRNETTopology()
	if cfg.topologyPath != "" {
		var err error
		spec, err = dvod.LoadTopologyFile(cfg.topologyPath)
		if err != nil {
			return nil, err
		}
	}
	opts := []dvod.Option{
		dvod.WithClusterBytes(cfg.clusterBytes),
		dvod.WithSNMPInterval(cfg.snmpInterval),
	}
	if cfg.mergeWindow != 0 {
		opts = append(opts, dvod.WithMergeWindow(cfg.mergeWindow))
	}
	if cfg.dataDir != "" {
		opts = append(opts, dvod.WithFileBackedDisks(cfg.dataDir))
	}
	for i, node := range spec.Nodes {
		addr := "127.0.0.1:0"
		if cfg.basePort > 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", cfg.basePort+i)
		}
		opts = append(opts, dvod.WithListenAddr(node, addr))
	}
	svc, err := dvod.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	dep := &deployment{Service: svc}

	lib, err := media.GenerateLibrary(media.LibrarySpec{
		Count:       cfg.numTitles,
		MinBytes:    cfg.titleBytes,
		MaxBytes:    cfg.titleBytes,
		BitrateMbps: 1.5,
		NamePrefix:  "movie",
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		dep.Close()
		return nil, err
	}
	for i, t := range lib {
		if err := svc.AddTitle(t); err != nil {
			dep.Close()
			return nil, err
		}
		node := spec.Nodes[i%len(spec.Nodes)]
		if err := svc.Preload(node, t.Name); err != nil {
			dep.Close()
			return nil, err
		}
		fmt.Fprintf(w, "title %-12s (%d bytes) preloaded on %s (%s)\n",
			t.Name, t.SizeBytes, node, dvod.GRNETCityName(node))
	}
	fmt.Fprintln(w)
	for _, node := range spec.Nodes {
		addr, err := svc.ServerAddr(node)
		if err != nil {
			dep.Close()
			return nil, err
		}
		fmt.Fprintf(w, "server %s (%-12s) listening on %s\n", node, dvod.GRNETCityName(node), addr)
	}

	if cfg.webPort >= 0 && (cfg.webPort > 0 || cfg.adminToken != "") {
		handler, err := svc.WebHandler(cfg.adminToken)
		if err != nil {
			dep.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", cfg.webPort))
		if err != nil {
			dep.Close()
			return nil, err
		}
		dep.webLn = ln
		dep.WebAddr = ln.Addr().String()
		go func() {
			_ = http.Serve(ln, handler) // returns when ln closes
		}()
		fmt.Fprintf(w, "web module on http://%s (admin %s)\n",
			dep.WebAddr, enabledWord(cfg.adminToken != ""))
	}
	return dep, nil
}

func enabledWord(on bool) string {
	if on {
		return "enabled"
	}
	return "disabled"
}
