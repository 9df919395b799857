package netmodel

import (
	"sort"

	"hitlist6/internal/ip6"
	"hitlist6/internal/rng"
)

// Hop is one traceroute hop.
type Hop struct {
	TTL       int
	Addr      ip6.Addr
	Responded bool
}

// routerAddr synthesizes a router interface address inside as. Stable
// routers use low interface identifiers inside a router subnet; rotating
// routers (RouterRotationDays > 0) draw a fresh randomized IID every
// rotation period — these are exactly the short-lived addresses that
// accumulate in the hitlist input and, for Chinese ASes, trigger GFW
// injections when scanned later.
func routerAddr(as *AS, subnet, router uint64, day int) ip6.Addr {
	if len(as.Announced) == 0 {
		return ip6.Addr{}
	}
	base := as.Announced[int(subnet%uint64(len(as.Announced)))]
	// A router /64 inside the announcement.
	hi := base.Addr().Hi() | (rng.Mix(uint64(as.ASN), subnet, 0x707e)%(1<<16))<<8
	if as.RouterRotationDays > 0 {
		period := uint64(day) / uint64(as.RouterRotationDays)
		lo := rng.Mix(uint64(as.ASN), subnet, router, period, 0x201d)
		return ip6.AddrFromUint64s(hi, lo)
	}
	return ip6.AddrFromUint64s(hi, router+1)
}

// transitASes returns the backbone ASes, cached after first use.
func (n *Network) transitASes() []*AS {
	if n.transit != nil {
		return n.transit
	}
	var out []*AS
	for _, as := range n.AS.All() {
		if as.Category == CatTransit {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	n.transit = out
	return out
}

// Traceroute performs a Yarrp-style path measurement towards target and
// returns the hops that answered, in TTL order. Router responsiveness is
// drawn per (router, day) so repeated runs in a day agree.
func (n *Network) Traceroute(target ip6.Addr, day, maxHops int) []Hop {
	var hops []Hop
	ttl := 1

	// Vantage-side transit routers, selected by the destination region so
	// paths are stable per target block.
	region := target.Hi() >> 32
	transits := n.transitASes()
	if len(transits) > 0 {
		k := 2 + int(rng.Mix(region, 0x7a17)%3)
		if k > maxHops {
			k = maxHops
		}
		for i := 0; i < k; i++ {
			as := transits[int(rng.Mix(region, uint64(i), 0x1271)%uint64(len(transits)))]
			addr := routerAddr(as, rng.Mix(region, uint64(i)), uint64(i), day)
			responded := rng.Mix(addr.Hi(), addr.Lo(), uint64(day), 0x4e5)%100 < 92
			hops = append(hops, Hop{TTL: ttl, Addr: addr, Responded: responded})
			ttl++
		}
	}

	// Destination-side routers inside the target's AS.
	as := n.AS.Lookup(target)
	if as != nil && len(as.Announced) > 0 && ttl <= maxHops {
		k := 1 + int(rng.Mix(target.Hi(), 0xde57)%3)
		for i := 0; i < k && ttl <= maxHops; i++ {
			subnet := rng.Mix(target.Hi(), uint64(i), 0x50b)
			addr := routerAddr(as, subnet, uint64(i), day)
			responded := rng.Mix(addr.Hi(), addr.Lo(), uint64(day), 0x4e5)%100 < 88
			hops = append(hops, Hop{TTL: ttl, Addr: addr, Responded: responded})
			ttl++
		}
	}

	// The target itself, when it answers ICMP (alias rules included).
	if ttl <= maxHops {
		if res := n.Resolve(target, ip6.ShardOf(target), day); res.responds(ICMP) {
			hops = append(hops, Hop{TTL: ttl, Addr: target, Responded: true})
		}
	}

	// Drop silent hops — Yarrp only reports answering interfaces.
	out := hops[:0]
	for _, h := range hops {
		if h.Responded {
			out = append(out, h)
		}
	}
	return out
}
