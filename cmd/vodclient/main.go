// Command vodclient connects to a running vodserver deployment, lists the
// catalog, or watches a title through a chosen home server, reporting
// per-cluster sources, verification, and playback statistics.
//
// Usage:
//
//	vodclient -home U2 -addr 127.0.0.1:9101 -list
//	vodclient -home U2 -addr 127.0.0.1:9101 -title movie-3
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dvod/internal/client"
	"dvod/internal/topology"
	"dvod/internal/transport"
)

func main() {
	home := flag.String("home", "U2", "home server node id")
	addr := flag.String("addr", "127.0.0.1:9101", "home server TCP endpoint")
	title := flag.String("title", "", "title to watch")
	list := flag.Bool("list", false, "list the catalog and exit")
	flag.Parse()
	if err := run(os.Stdout, *home, *addr, *title, *list); err != nil {
		fmt.Fprintln(os.Stderr, "vodclient:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, home, addr, title string, list bool) error {
	book := transport.NewAddrBook()
	node := topology.NodeID(home)
	book.Set(node, addr)
	player, err := client.NewPlayer(node, book)
	if err != nil {
		return err
	}
	defer player.Close()
	if list {
		titles, err := player.ListTitles()
		if err != nil {
			return err
		}
		for _, t := range titles {
			mark := " "
			if t.Resident {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %-16s %10d bytes  %.1f Mbps\n", mark, t.Name, t.SizeBytes, t.BitrateMbps)
		}
		fmt.Fprintln(w, "(* = resident on the home server)")
		return nil
	}
	if title == "" {
		return errors.New("need -title or -list")
	}
	stats, err := player.Watch(title)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "title %s: %d clusters, %d bytes, verified=%v\n",
		stats.Title, stats.NumClusters, stats.BytesReceived, stats.Verified)
	fmt.Fprintf(w, "startup %v, stalls %d (%v), elapsed %v, mid-stream switches %d\n",
		stats.StartupDelay, stats.Stalls, stats.StallTime, stats.Elapsed, stats.Switches)
	fmt.Fprint(w, "sources:")
	for _, s := range stats.Sources {
		fmt.Fprintf(w, " %s", s)
	}
	fmt.Fprintln(w)
	return nil
}
