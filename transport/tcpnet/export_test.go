package tcpnet

// NewWithConns is New with conns connections per peer instead of
// connsPerPeer, for the external conformance suite.
func NewWithConns(cfg Config, conns int) (*Transport, error) {
	return newTransport(cfg, conns, maxFrame)
}
