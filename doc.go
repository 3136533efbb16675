// Package repro is a Go reproduction of "The Index-Permutation Graph Model
// for Hierarchical Interconnection Networks" (Yeh and Parhami, ICPP 1999).
//
// The library lives under internal/: the IP graph model itself in
// internal/core, the paper's super-IP families in internal/superip, the
// comparison networks in internal/networks and internal/hier, measurement
// machinery in internal/graph and internal/metrics, topologies and routing
// in internal/topo, embeddings in internal/embed, a packet-switched simulator
// in internal/netsim, and the figure regeneration engine in
// internal/figures. See README.md for a tour and DESIGN.md for the
// paper-to-module map.
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation section; run them with
//
//	go test -bench=. -benchmem
package repro
