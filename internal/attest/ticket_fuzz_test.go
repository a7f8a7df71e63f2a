package attest

import (
	"errors"
	"fmt"
	"testing"

	"cronus/internal/sim"
)

// ticketOracle is the reference model of TicketCache: an explicit
// most-recently-used-first slice of (tenant, meas) → (epoch, expiry) slots,
// the LRU bound, the TTL, and the revoked measurements.
type ticketOracle struct {
	cap     int
	ttl     sim.Duration
	slots   []oracleSlot // front = most recently used
	revoked map[Measurement]string
}

type oracleSlot struct {
	key      ticketKey
	epoch    uint64
	expires  sim.Time
	tampered bool
}

func (o *ticketOracle) find(k ticketKey) int {
	for i, s := range o.slots {
		if s.key == k {
			return i
		}
	}
	return -1
}

func (o *ticketOracle) remove(i int) oracleSlot {
	s := o.slots[i]
	o.slots = append(o.slots[:i], o.slots[i+1:]...)
	return s
}

func (o *ticketOracle) toFront(s oracleSlot) {
	o.slots = append([]oracleSlot{s}, o.slots...)
}

func (o *ticketOracle) mint(k ticketKey, epoch uint64, now sim.Time) {
	s := oracleSlot{key: k, epoch: epoch, expires: now + sim.Time(o.ttl)}
	if i := o.find(k); i >= 0 {
		o.remove(i)
	} else if o.cap > 0 && len(o.slots) >= o.cap {
		o.slots = o.slots[:len(o.slots)-1]
	}
	o.toFront(s)
}

// resume returns (hit, revoked partition name or "").
func (o *ticketOracle) resume(k ticketKey, epoch uint64, now sim.Time) (bool, string) {
	if part, ok := o.revoked[k.meas]; ok {
		return false, part
	}
	i := o.find(k)
	if i < 0 {
		return false, ""
	}
	s := o.remove(i)
	if s.epoch != epoch || now >= s.expires || s.tampered {
		return false, ""
	}
	o.toFront(s)
	return true, ""
}

func (o *ticketOracle) revoke(part string, meas Measurement) int {
	o.revoked[meas] = part
	n := 0
	kept := o.slots[:0]
	for _, s := range o.slots {
		if s.key.meas == meas {
			n++
			continue
		}
		kept = append(kept, s)
	}
	o.slots = kept
	return n
}

// FuzzTicketResume drives TicketCache through arbitrary Mint / Resume /
// RevokeMeasurement / Storm / MAC-tamper sequences over a small tenant and
// measurement alphabet, on a non-decreasing virtual clock, and checks every
// answer against ticketOracle: Resume hits exactly where the oracle's LRU
// and TTL rules say so, revoked measurements fail with a typed
// *RevokedError naming the revoking partition, counts and sizes agree, and
// nothing panics. The input is a header (capacity, TTL) followed by 4-byte
// operations: opcode, tenant, measurement, and an epoch/clock-step byte.
func FuzzTicketResume(f *testing.F) {
	f.Add([]byte{2, 4, 0, 0, 0, 1, 1, 0, 0, 1})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 40, 1, 0, 0, 0})
	f.Add([]byte{3, 8, 0, 0, 1, 0, 0, 1, 1, 0, 2, 0, 1, 0, 1, 0, 1, 3, 3, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := int(data[0] % 6) // 0 = unbounded
		ttl := sim.Duration(data[1]%32+1) * sim.Microsecond
		c, _ := testCache(capacity, ttl)
		o := &ticketOracle{cap: capacity, ttl: ttl, revoked: map[Measurement]string{}}
		tenants := []string{"t0", "t1", "t2"}
		var meas [4]Measurement
		for i := range meas {
			meas[i] = Measure([]byte{byte(i)})
		}
		now := sim.Time(0)
		ops := data[2:]
		for i := 0; i+4 <= len(ops); i += 4 {
			op, arg := ops[i]%6, ops[i+3]
			k := ticketKey{tenants[int(ops[i+1])%len(tenants)], meas[int(ops[i+2])%len(meas)]}
			epoch := uint64(arg % 3)
			step := fmt.Sprintf("op %d (%d) on %s/%x", i/4, op, k.tenant, k.meas[:2])
			switch op {
			case 0: // mint
				c.Mint(k.tenant, k.meas, epoch, now)
				o.mint(k, epoch, now)
			case 1: // resume
				hit, err := c.Resume(k.tenant, k.meas, epoch, now)
				wantHit, wantPart := o.resume(k, epoch, now)
				var rev *RevokedError
				switch {
				case wantPart != "":
					if !errors.As(err, &rev) || rev.Partition != wantPart || rev.Meas != k.meas || rev.Tenant != k.tenant {
						t.Fatalf("%s: Resume = (%v, %v), want *RevokedError for partition %s", step, hit, err, wantPart)
					}
					if hit {
						t.Fatalf("%s: revoked measurement resumed", step)
					}
				case err != nil:
					t.Fatalf("%s: Resume error %v on a live measurement", step, err)
				case hit != wantHit:
					t.Fatalf("%s: Resume hit=%v, oracle says %v", step, hit, wantHit)
				}
			case 2: // advance the clock
				now += sim.Time(arg) * sim.Time(sim.Microsecond)
			case 3: // revoke
				part := fmt.Sprintf("gpu-part%d", arg%4)
				if got, want := c.RevokeMeasurement(part, k.meas), o.revoke(part, k.meas); got != want {
					t.Fatalf("%s: RevokeMeasurement dropped %d tickets, oracle %d", step, got, want)
				}
			case 4: // storm
				if got, want := c.Storm(now), len(o.slots); got != want {
					t.Fatalf("%s: Storm flushed %d tickets, oracle %d", step, got, want)
				}
				o.slots = o.slots[:0]
			case 5: // forge: corrupt one byte of the cached ticket's seal
				if el, ok := c.byKey[k]; ok {
					tk := el.Value.(*entry).tk
					j := int(arg) % len(tk.MAC)
					tk.MAC[j] = c.seal(tk)[j] ^ 1
					o.slots[o.find(k)].tampered = true
				}
			}
			if c.Len() != len(o.slots) {
				t.Fatalf("%s: cache holds %d tickets, oracle %d", step, c.Len(), len(o.slots))
			}
			if capacity > 0 && c.Len() > capacity {
				t.Fatalf("%s: %d tickets exceed the LRU bound %d", step, c.Len(), capacity)
			}
		}
	})
}
