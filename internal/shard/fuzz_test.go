package shard

import (
	"fmt"
	"testing"

	"sais/internal/units"
)

// FuzzMailboxOrder feeds the mailbox a fuzz-chosen message set in a
// fuzz-chosen arrival order and asserts the execution order is the
// canonical (At, SentAt, Origin, Seq) sort — never the arrival order.
// This is the heart of the sharding determinism claim: two layouts
// deliver the same messages in different arrival orders, and the
// executor must erase that difference.
func FuzzMailboxOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x01, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode up to 16 messages, 3 bytes each: at-offset, sentAt
		// fraction, origin. Seq is the decode index, which also makes
		// every key unique.
		n := len(data) / 3
		if n == 0 {
			return
		}
		if n > 16 {
			n = 16
		}
		msgs := make([]Msg, n)
		for i := 0; i < n; i++ {
			at := units.Time(data[3*i]%8) + 1 // delivery in [1, 8]
			sent := units.Time(data[3*i+1]) % at
			msgs[i] = Msg{
				At:     at,
				SentAt: sent,
				Origin: uint64(data[3*i+2]%5) + 1,
				Seq:    uint64(i),
			}
		}
		run := func(order func(i int) int) []string {
			engs := mkEngines(2)
			s := New(engs, 1)
			var log []string
			for i := range msgs {
				m := msgs[order(i)]
				m.Fn = func(now units.Time) {
					log = append(log, fmt.Sprintf("%d/%d/%d@%d", m.SentAt, m.Origin, m.Seq, now))
				}
				s.inbox[1] = append(s.inbox[1], m)
			}
			s.Run()
			return log
		}
		fwd := run(func(i int) int { return i })
		rev := run(func(i int) int { return len(msgs) - 1 - i })
		// A third arrival order: even indices then odd.
		mix := run(func(i int) int {
			if 2*i < len(msgs) {
				return 2 * i
			}
			return 2*(i-(len(msgs)+1)/2) + 1
		})
		for i := range fwd {
			if fwd[i] != rev[i] || fwd[i] != mix[i] {
				t.Fatalf("arrival order leaked into execution:\nfwd %v\nrev %v\nmix %v", fwd, rev, mix)
			}
		}
		// And the log must be sorted by the canonical key.
		for i := 1; i < len(fwd); i++ {
			a, b := parseKey(t, fwd[i-1]), parseKey(t, fwd[i])
			if msgCmp(b, a) < 0 {
				t.Fatalf("execution not in canonical order: %v before %v", fwd[i-1], fwd[i])
			}
		}
	})
}

// parseKey recovers the ordering key from a fuzz log entry.
func parseKey(t *testing.T, s string) Msg {
	t.Helper()
	var m Msg
	var at units.Time
	if _, err := fmt.Sscanf(s, "%d/%d/%d@%d", &m.SentAt, &m.Origin, &m.Seq, &at); err != nil {
		t.Fatalf("bad log entry %q: %v", s, err)
	}
	m.At = at
	return m
}
