package cluster

import (
	"bytes"
	"fmt"
	"sync"

	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
)

// channelBuffer sizes the public event channels; it matches the
// middleware's own delivery buffering.
const channelBuffer = 8192

// Member is one cluster member: the application-facing handle onto its
// middleware stack (invocation layer + GC machine — wrapped in a
// fail-signal pair unless the cluster is crash-tolerant).
type Member struct {
	name string
	svc  newtop.Service
	nso  *fsnewtop.NSO // nil for crash-tolerant members

	deliveries  chan Delivery
	views       chan View
	failSignals chan string
	stop        chan struct{}
	closeOnce   sync.Once
	// onView, when set, tees every installed view to the cluster's
	// auto-heal controller before it reaches the application.
	onView func(View)
}

// newMember wraps a middleware service and starts the pump that converts
// internal events into the public types.
func newMember(name string, svc newtop.Service, nso *fsnewtop.NSO, onView func(View)) *Member {
	m := &Member{
		name:        name,
		svc:         svc,
		nso:         nso,
		deliveries:  make(chan Delivery, channelBuffer),
		views:       make(chan View, channelBuffer),
		failSignals: make(chan string, 64),
		stop:        make(chan struct{}),
		onView:      onView,
	}
	go m.pump()
	return m
}

// pump forwards middleware events to the public channels. A full public
// channel applies backpressure to the middleware, exactly as direct
// consumption would.
func (m *Member) pump() {
	var fails <-chan string
	if m.nso != nil {
		fails = m.nso.FailSignals()
	}
	for {
		select {
		case <-m.stop:
			return
		case d := <-m.svc.Deliveries():
			// The one copy out of the stack. Below this line a payload is a
			// view of the transport message it arrived in, and the rule that
			// makes views safe is that nobody writes to one. The application
			// is outside that rule — it owns what it is handed — so it is
			// handed bytes nothing below can reach.
			out := Delivery{Group: d.Group, Origin: d.Origin, Ordering: Ordering(d.Service), Payload: bytes.Clone(d.Payload)}
			select {
			case m.deliveries <- out:
			case <-m.stop:
				return
			}
		case v := <-m.svc.Views():
			out := View{Group: v.Group, ViewID: v.ViewID, Members: v.Members}
			if m.onView != nil {
				m.onView(out)
			}
			select {
			case m.views <- out:
			case <-m.stop:
				return
			}
		case src := <-fails:
			select {
			case m.failSignals <- src:
			default: // fail-signal observers are advisory; never block on them
			}
		}
	}
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
	return m.svc.Multicast(groupName, group.Service(o), payload)
}

// Deliveries streams delivered messages. Consumers must drain it; an
// undrained channel applies backpressure to the protocol machine.
func (m *Member) Deliveries() <-chan Delivery { return m.deliveries }

// Views streams installed membership views.
func (m *Member) Views() <-chan View { return m.views }

// FailSignals streams the sources of verified fail-signals received by
// this member's invocation layer. Crash-tolerant members have no
// fail-signals; their channel never delivers.
func (m *Member) FailSignals() <-chan string { return m.failSignals }

// close stops the pump and the underlying middleware stack. Idempotent.
func (m *Member) close() {
	m.closeOnce.Do(func() {
		close(m.stop)
		m.svc.Close()
	})
}
