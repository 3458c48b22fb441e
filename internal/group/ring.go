package group

// ring is a double-ended queue of messages over a power-of-two circular
// buffer. The retention windows (a member's own sent messages, an origin's
// delivered tail) push at the back and evict at the front, and the
// symmetric order's pending set pops its head and inserts near its tail —
// all in place once the buffer has grown to the window, where a map
// allocated per entry and a front-popped slice reallocated as it crept.
type ring struct {
	buf  []DataMsg
	head int // index in buf of element 0
	n    int
}

func (r *ring) len() int { return r.n }

// at returns element i, 0 <= i < len.
func (r *ring) at(i int) *DataMsg { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring) pushBack(d DataMsg) {
	if r.n == len(r.buf) {
		buf := make([]DataMsg, max(8, 2*len(r.buf)))
		r.appendTo(buf[:0])
		r.buf, r.head = buf, 0
	}
	r.n++
	*r.at(r.n - 1) = d
}

// dropFront removes element 0, clearing its slot so the buffer does not
// keep its payload alive.
func (r *ring) dropFront() {
	*r.at(0) = DataMsg{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// insert places d at position i, 0 <= i <= len, shifting the tail back.
func (r *ring) insert(i int, d DataMsg) {
	r.pushBack(d)
	if i == r.n-1 {
		return
	}
	for j := r.n - 1; j > i; j-- {
		*r.at(j) = *r.at(j - 1)
	}
	*r.at(i) = d
}

// filter keeps, in order, the elements keep accepts.
func (r *ring) filter(keep func(*DataMsg) bool) {
	n := 0
	for i := 0; i < r.n; i++ {
		if p := r.at(i); keep(p) {
			*r.at(n) = *p
			n++
		}
	}
	for i := n; i < r.n; i++ {
		*r.at(i) = DataMsg{}
	}
	r.n = n
}

// appendTo appends the elements in order to dst.
func (r *ring) appendTo(dst []DataMsg) []DataMsg {
	for i := 0; i < r.n; i++ {
		dst = append(dst, *r.at(i))
	}
	return dst
}

// retain pushes d, whose sender sequence is above every held one, and
// evicts the messages window or more sequences behind it: a bounded
// retention window by sequence number, kept ascending.
func (r *ring) retain(d DataMsg, window uint64) {
	r.pushBack(d)
	for r.n > 0 && r.at(0).SenderSeq+window <= d.SenderSeq {
		r.dropFront()
	}
}

// find returns the message with sender sequence seq from a ring kept
// ascending by sequence (see retain).
func (r *ring) find(seq uint64) (DataMsg, bool) {
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid).SenderSeq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < r.n && r.at(lo).SenderSeq == seq {
		return *r.at(lo), true
	}
	return DataMsg{}, false
}
