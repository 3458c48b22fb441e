package cluster

import (
	"fmt"

	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/newtop"
)

// Member is one cluster member: the application-facing handle onto its
// middleware stack (invocation layer + GC machine — wrapped in a
// fail-signal pair unless the cluster is crash-tolerant). Its event
// streams are the middleware's own channels: nothing stands between the
// NSO's hand-off and the application.
type Member struct {
	name string
	svc  newtop.Service
	nso  *fsnewtop.NSO // nil for crash-tolerant members
}

// Name returns the member's logical name.
func (m *Member) Name() string { return m.name }

// Join creates/joins a group. With no explicit members the call is
// invalid — use Cluster.JoinAll for the full-membership bootstrap.
func (m *Member) Join(groupName string, members ...string) error {
	return m.svc.Join(groupName, members)
}

// JoinExisting seeks admission into an already-running group through the
// given contacts (current members of the group): the group's coordinator
// transfers a state snapshot to this member, then drives a view change
// that adds it. Watch Views for the installed view that includes it.
func (m *Member) JoinExisting(groupName string, contacts ...string) error {
	if len(contacts) == 0 {
		return fmt.Errorf("cluster: JoinExisting needs at least one contact")
	}
	return m.svc.JoinExisting(groupName, contacts)
}

// Multicast sends payload to the group at the given ordering level.
func (m *Member) Multicast(groupName string, o Ordering, payload []byte) error {
	return m.svc.Multicast(groupName, o, payload)
}

// Deliveries streams delivered messages; each payload is the
// application's own to keep or modify. Consumers must drain it; an
// undrained channel applies backpressure to the protocol machine.
func (m *Member) Deliveries() <-chan Delivery { return m.svc.Deliveries() }

// Views streams installed membership views.
func (m *Member) Views() <-chan View { return m.svc.Views() }

// FailSignals streams the sources of verified fail-signals received by
// this member's invocation layer. Crash-tolerant members have no
// fail-signals: theirs is a nil channel, which never delivers.
func (m *Member) FailSignals() <-chan string {
	if m.nso == nil {
		return nil
	}
	return m.nso.FailSignals()
}
