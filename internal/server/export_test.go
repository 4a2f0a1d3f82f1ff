package server

import (
	"dvod/internal/core"
	"dvod/internal/faults"
	"dvod/internal/transport"
)

// FetchRemoteCluster exposes one peer fetch, below retries and breakers, to
// the package's external tests.
func (s *Server) FetchRemoteCluster(dec core.Decision, title string, index int) (*transport.Frame, transport.ClusterPayload, error) {
	return s.fetchRemoteCluster(dec, title, index)
}

// Breakers exposes the peer-fetch circuit breakers (nil with DisableDefense)
// to the package's external tests.
func (s *Server) Breakers() *faults.BreakerSet { return s.breakers }

// Pipes exposes the pipe pool that carries pulled cluster bodies to the
// package's external tests.
func (s *Server) Pipes() *transport.PipePool { return s.pipes }
