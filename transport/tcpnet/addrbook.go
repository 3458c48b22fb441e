package tcpnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"fsnewtop/transport"
)

// PeerEntry is one address-book manifest entry: a logical transport
// address and the host:port endpoint of the process serving it. The JSON
// manifest format is an array of these:
//
//	[
//	  {"addr": "node:m00", "endpoint": "10.0.0.5:7100"},
//	  {"addr": "m00#L",    "endpoint": "10.0.0.5:7100"}
//	]
//
// It is how a book learns remote endpoints across processes: a deployment
// controller writes one manifest describing every member's placement, and
// each worker process seeds its book from it (via a file, a pipe, or the
// TCPNET_PEERS environment variable) before starting traffic.
type PeerEntry struct {
	Addr     string `json:"addr"`
	Endpoint string `json:"endpoint"`
}

// PeersEnv is the environment variable PeersFromEnv reads: a JSON
// manifest in the LoadPeers format, for deployments that configure
// workers through the environment rather than flags or files.
const PeersEnv = "TCPNET_PEERS"

// LoadPeers parses a JSON peers manifest and merges every entry into the
// book. It returns the number of entries loaded. Validation is strict and
// errors name the offending entry: a manifest with a typo must fail the
// worker at startup, not surface minutes later as ErrUnknownAddr on some
// protocol path. Entries are validated before any is applied, so a bad
// manifest never half-seeds the book.
func (b *AddrBook) LoadPeers(r io.Reader) (int, error) {
	var entries []PeerEntry
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&entries); err != nil {
		return 0, fmt.Errorf("tcpnet: peers manifest: %w", err)
	}
	seen := make(map[string]int, len(entries))
	for i, e := range entries {
		if e.Addr == "" {
			return 0, fmt.Errorf("tcpnet: peers manifest entry %d: empty addr (endpoint %q)", i, e.Endpoint)
		}
		if prev, dup := seen[e.Addr]; dup {
			return 0, fmt.Errorf("tcpnet: peers manifest entry %d: duplicate addr %q (first at entry %d)", i, e.Addr, prev)
		}
		seen[e.Addr] = i
		if err := validEndpoint(e.Endpoint); err != nil {
			return 0, fmt.Errorf("tcpnet: peers manifest entry %d (addr %q): %w", i, e.Addr, err)
		}
	}
	b.mu.Lock()
	for _, e := range entries {
		b.m[transport.Addr(e.Addr)] = e.Endpoint
	}
	b.mu.Unlock()
	return len(entries), nil
}

// PeersFromEnv seeds the book from the PeersEnv environment variable. An
// unset or empty variable loads nothing and is not an error — the
// environment is an optional configuration channel, unlike an explicit
// manifest file, whose absence is a deployment bug.
func (b *AddrBook) PeersFromEnv() (int, error) {
	v := os.Getenv(PeersEnv)
	if v == "" {
		return 0, nil
	}
	n, err := b.LoadPeers(strings.NewReader(v))
	if err != nil {
		return 0, fmt.Errorf("%w (from $%s)", err, PeersEnv)
	}
	return n, nil
}

// MarshalPeers renders address → endpoint pairs as a LoadPeers manifest.
// Deployment controllers use it to distribute one book to every worker.
func MarshalPeers(entries []PeerEntry) ([]byte, error) {
	for i, e := range entries {
		if e.Addr == "" {
			return nil, fmt.Errorf("tcpnet: peers manifest entry %d: empty addr", i)
		}
		if err := validEndpoint(e.Endpoint); err != nil {
			return nil, fmt.Errorf("tcpnet: peers manifest entry %d (addr %q): %w", i, e.Addr, err)
		}
	}
	return json.Marshal(entries)
}

// validEndpoint checks that endpoint is a dialable host:port.
func validEndpoint(endpoint string) error {
	host, port, err := net.SplitHostPort(endpoint)
	if err != nil {
		return fmt.Errorf("bad endpoint %q: %w", endpoint, err)
	}
	if host == "" {
		return fmt.Errorf("bad endpoint %q: empty host", endpoint)
	}
	if _, err := net.LookupPort("tcp", port); err != nil {
		return fmt.Errorf("bad endpoint %q: %w", endpoint, err)
	}
	return nil
}
