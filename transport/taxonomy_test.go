package transport_test

import (
	"errors"
	"testing"

	"fsnewtop/internal/orb"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// TestErrorTaxonomy pins the cross-layer error unification: every layer's
// closed/unknown sentinel answers to the transport identity, so a
// caller holding an error from any depth of the stack can classify it
// with one errors.Is check.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		is   error
	}{
		{"netsim.ErrClosed", netsim.ErrClosed, transport.ErrClosed},
		{"netsim.ErrUnknownAddr", netsim.ErrUnknownAddr, transport.ErrUnknownAddr},
		{"tcpnet.ErrClosed", tcpnet.ErrClosed, transport.ErrClosed},
		{"tcpnet.ErrUnknownAddr", tcpnet.ErrUnknownAddr, transport.ErrUnknownAddr},
		{"orb.ErrClosed", orb.ErrClosed, transport.ErrClosed},
		{"orb.ErrNoSuchObject", orb.ErrNoSuchObject, transport.ErrUnknownAddr},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.is) {
			t.Errorf("%s does not wrap %v", c.name, c.is)
		}
	}
}
