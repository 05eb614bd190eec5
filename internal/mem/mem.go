// Package mem models the physical memory system of the simulated machine:
// sparse byte-addressable RAM plus a physical bus with memory-mapped device
// windows (UART console, a virtio-like network device and a block device).
// All multi-byte accesses are little-endian, as on AArch64 Linux.
package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"camouflage/internal/obs"
)

// PageSize is the physical page granule (4 KiB, the configuration of the
// paper's Appendix A).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Phys is sparse physical RAM with copy-on-write forking. Pages live in
// two layers: an immutable shared base (installed by Freeze or by forking
// from a Frozen snapshot) and a private overlay of pages this Phys has
// written since. Reads fall through the overlay to the base; the first
// write to a page copies it into the overlay. The zero value of the
// overlay-only form is ready to use: pages are allocated on first touch
// and read as zero before any write.
type Phys struct {
	// pages is the private, writable overlay.
	pages map[uint64]*[PageSize]byte
	// base is the immutable copy-on-write base (nil before any Freeze).
	// Base pages are shared between every Phys forked from the same
	// Frozen and must never be written through.
	base map[uint64]*[PageSize]byte
	// gen is the host-pointer generation. Any event that can change which
	// backing array serves an address bumps it: Freeze (overlay pages are
	// promoted into a shared base that must never be written through),
	// ResetTo (the overlay is dropped and the base repointed), and every
	// copy-on-write materialization or first-touch allocation (a page's
	// backing array changes from the shared base copy, or from implicit
	// zeroes, to a fresh private array). A cached *[PageSize]byte obtained
	// from PageForLoad/PageForStore is valid only while gen is unchanged.
	// On an SMP machine every CPU's host-pointer TLB validates against
	// the one shared generation, so a copy-on-write materialization
	// triggered by CPU 0 invalidates warm pointers on CPU 1 at its next
	// probe (the memory-side half of the DESIGN.md §9 shootdown
	// protocol).
	gen uint64
}

// NewPhys returns an empty physical memory.
func NewPhys() *Phys {
	return &Phys{pages: make(map[uint64]*[PageSize]byte)}
}

// Frozen is an immutable page store captured by Freeze: the copy-on-write
// base shared by every Phys forked from the same snapshot.
type Frozen struct {
	pages map[uint64]*[PageSize]byte
}

// Pages returns the number of pages in the frozen store.
func (f *Frozen) Pages() int { return len(f.pages) }

// Freeze promotes the current contents into a new immutable base and
// clears the overlay, returning the base as a Frozen snapshot. The Phys
// keeps running on top of it copy-on-write, so freezing a live machine is
// safe: its later writes land in the fresh overlay, never in the
// snapshot. Cost is O(populated pages) for the merge, zero copying.
func (p *Phys) Freeze() *Frozen {
	merged := make(map[uint64]*[PageSize]byte, len(p.base)+len(p.pages))
	for pn, pg := range p.base {
		merged[pn] = pg
	}
	for pn, pg := range p.pages {
		merged[pn] = pg
	}
	p.base = merged
	p.pages = make(map[uint64]*[PageSize]byte)
	p.gen++
	return &Frozen{pages: merged}
}

// NewPhysFrom returns a fresh Phys backed copy-on-write by the frozen
// store: O(1), no pages are copied until written.
func NewPhysFrom(f *Frozen) *Phys {
	return &Phys{pages: make(map[uint64]*[PageSize]byte), base: f.pages}
}

// ResetTo rewinds the Phys to exactly the frozen store's contents,
// discarding every page written since (O(1) beyond garbage): the overlay
// is dropped and the base repointed, so intervening Freezes do not stick.
func (p *Phys) ResetTo(f *Frozen) {
	p.base = f.pages
	p.pages = make(map[uint64]*[PageSize]byte)
	p.gen++
}

// DirtyPages returns the number of overlay pages written since the last
// Freeze/ResetTo (the copy-on-write cost a Reset reclaims).
func (p *Phys) DirtyPages() int { return len(p.pages) }

// OverlayDigest returns the SHA-256 of the copy-on-write overlay: each
// overlay page's number (8 bytes, little-endian) and its bytes, in page
// order. Two Phys on one base with equal digests hold the same memory
// and the same overlay page set, so the digest names everything a fork
// changed in RAM since the snapshot it came from.
func (p *Phys) OverlayDigest() [sha256.Size]byte {
	pns := make([]uint64, 0, len(p.pages))
	for pn := range p.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	h := sha256.New()
	var num [8]byte
	for _, pn := range pns {
		binary.LittleEndian.PutUint64(num[:], pn)
		h.Write(num[:])
		h.Write(p.pages[pn][:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// page returns the page containing addr. With create=false the lookup
// falls through to the copy-on-write base and may return nil (read as
// zero); with create=true the page is copied up into the private overlay
// so the caller may write through it.
//
//camo:hotpath
func (p *Phys) page(addr uint64, create bool) *[PageSize]byte {
	pn := addr >> PageShift
	if pg := p.pages[pn]; pg != nil {
		return pg
	}
	shared := p.base[pn]
	if !create {
		return shared
	}
	pg := new([PageSize]byte) //camo:alloc copy-on-write materialization; once per page per fork
	if shared != nil {
		*pg = *shared
	}
	p.pages[pn] = pg
	p.gen++
	obs.Add(obs.CCOWMaterialize, 1)
	return pg
}

// Gen returns the host-pointer generation. Cached page pointers are
// valid only while it is unchanged (see the gen field's doc). Callers
// that swap a Bus's RAM wholesale must flush any cache keyed by this
// value themselves (the kernel snapshot paths do, via
// MMU.InvalidateTLBAll).
func (p *Phys) Gen() uint64 { return p.gen }

// PageForLoad returns the backing page for reads of the page containing
// addr — possibly a shared copy-on-write base page — or nil when the
// page has never been touched (reads as zero). The pointer is valid
// until the next Gen bump; callers caching it must revalidate.
func (p *Phys) PageForLoad(addr uint64) *[PageSize]byte {
	return p.page(addr, false)
}

// PageForStore returns the private writable page containing addr,
// materializing a copy-on-write copy (or a fresh zero page) on first
// touch — which itself bumps Gen, so callers must read Gen after this
// call when caching the pointer.
func (p *Phys) PageForStore(addr uint64) *[PageSize]byte {
	return p.page(addr, true)
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (p *Phys) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		pg := p.page(addr+uint64(i), false)
		off := int((addr + uint64(i)) & (PageSize - 1))
		chunk := PageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if pg != nil {
			copy(out[i:i+chunk], pg[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// AppendBytes appends n bytes starting at addr to dst and returns the
// extended slice: ReadBytes without the intermediate allocation. The only
// allocation is dst's own growth, which amortizes away for a reused
// buffer (the kernel's pipe fast path).
func (p *Phys) AppendBytes(dst []byte, addr uint64, n int) []byte {
	for i := 0; i < n; {
		pg := p.page(addr+uint64(i), false)
		off := int((addr + uint64(i)) & (PageSize - 1))
		chunk := PageSize - off
		if chunk > n-i {
			chunk = n - i
		}
		if pg != nil {
			dst = append(dst, pg[off:off+chunk]...)
		} else {
			dst = append(dst, zeroPage[:chunk]...)
		}
		i += chunk
	}
	return dst
}

// zeroPage backs AppendBytes reads of never-touched pages.
var zeroPage [PageSize]byte

// WriteBytes copies b into memory starting at addr.
func (p *Phys) WriteBytes(addr uint64, b []byte) {
	for i := 0; i < len(b); {
		pg := p.page(addr+uint64(i), true)
		off := int((addr + uint64(i)) & (PageSize - 1))
		chunk := PageSize - off
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		copy(pg[off:off+chunk], b[i:i+chunk])
		i += chunk
	}
}

// readSlow assembles an n-byte little-endian value byte by byte: the
// allocation-free fallback for absent pages (read as zero) and accesses
// straddling a page boundary.
func (p *Phys) readSlow(addr uint64, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(p.Read8(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Read64 loads a little-endian 64-bit value.
//
//camo:hotpath
func (p *Phys) Read64(addr uint64) uint64 {
	if addr&(PageSize-1) <= PageSize-8 {
		if pg := p.page(addr, false); pg != nil {
			off := addr & (PageSize - 1)
			return binary.LittleEndian.Uint64(pg[off : off+8])
		}
		return 0
	}
	return p.readSlow(addr, 8)
}

// Write64 stores a little-endian 64-bit value.
//
//camo:hotpath
func (p *Phys) Write64(addr uint64, v uint64) {
	if addr&(PageSize-1) <= PageSize-8 {
		pg := p.page(addr, true)
		off := addr & (PageSize - 1)
		binary.LittleEndian.PutUint64(pg[off:off+8], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.WriteBytes(addr, b[:])
}

// Read32 loads a little-endian 32-bit value.
//
//camo:hotpath
func (p *Phys) Read32(addr uint64) uint32 {
	if addr&(PageSize-1) <= PageSize-4 {
		if pg := p.page(addr, false); pg != nil {
			off := addr & (PageSize - 1)
			return binary.LittleEndian.Uint32(pg[off : off+4])
		}
		return 0
	}
	return uint32(p.readSlow(addr, 4))
}

// Write32 stores a little-endian 32-bit value.
//
//camo:hotpath
func (p *Phys) Write32(addr uint64, v uint32) {
	if addr&(PageSize-1) <= PageSize-4 {
		pg := p.page(addr, true)
		off := addr & (PageSize - 1)
		binary.LittleEndian.PutUint32(pg[off:off+4], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.WriteBytes(addr, b[:])
}

// Read8 loads one byte.
//
//camo:hotpath
func (p *Phys) Read8(addr uint64) byte {
	if pg := p.page(addr, false); pg != nil {
		return pg[addr&(PageSize-1)]
	}
	return 0
}

// Write8 stores one byte.
//
//camo:hotpath
func (p *Phys) Write8(addr uint64, v byte) {
	p.page(addr, true)[addr&(PageSize-1)] = v
}

// PopulatedPages returns the number of RAM pages that have been touched
// (distinct pages across the copy-on-write base and the overlay).
func (p *Phys) PopulatedPages() int {
	n := len(p.pages)
	for pn := range p.base {
		if _, shadowed := p.pages[pn]; !shadowed {
			n++
		}
	}
	return n
}

// Device is a memory-mapped peripheral. Offsets are relative to the
// device's bus window. Accesses are 1, 4 or 8 bytes wide.
type Device interface {
	// Name identifies the device in diagnostics.
	Name() string
	// Load reads size bytes at offset.
	Load(offset uint64, size int) (uint64, error)
	// Store writes size bytes at offset.
	Store(offset uint64, size int, v uint64) error
}

// mapping is one device window on the bus.
type mapping struct {
	base uint64
	size uint64
	dev  Device
}

// Bus routes physical accesses to RAM or to device windows. On an SMP
// machine one Bus is shared by every CPU.
type Bus struct {
	RAM  *Phys
	maps []mapping
	// last caches the most recently hit device window: device accesses
	// cluster (a driver hammers one window), so the cache short-circuits
	// the binary search. Invalidated by Map (the slice is re-sorted and
	// pointers into it move).
	last *mapping
}

// NewBus returns a bus backed by fresh RAM.
func NewBus() *Bus {
	return &Bus{RAM: NewPhys()}
}

// Map attaches a device at [base, base+size). Windows must not overlap.
func (b *Bus) Map(base, size uint64, dev Device) error {
	for _, m := range b.maps {
		if base < m.base+m.size && m.base < base+size {
			return fmt.Errorf("mem: window %#x+%#x overlaps %s", base, size, m.dev.Name())
		}
	}
	b.maps = append(b.maps, mapping{base, size, dev})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
	b.last = nil
	// Mapping a window changes address routing: any host pointer cached
	// for a page the window now overlaps must die, exactly like a
	// Freeze/ResetTo. Today windows are only mapped at construction, but
	// the invalidation contract should not depend on that.
	b.RAM.gen++
	return nil
}

// find returns the device window containing addr, or nil for RAM.
// Windows are kept base-sorted by Map, so the lookup is a last-hit probe
// followed by binary search for the rightmost window at or below addr —
// O(log n) in the number of devices instead of the seed's linear scan.
func (b *Bus) find(addr uint64) *mapping {
	if m := b.last; m != nil && addr-m.base < m.size {
		return m
	}
	lo, hi := 0, len(b.maps)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.maps[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	m := &b.maps[lo-1]
	if addr-m.base < m.size {
		b.last = m
		return m
	}
	return nil
}

// findOverlap reports whether any device window overlaps [lo, hi).
func (b *Bus) findOverlap(lo, hi uint64) bool {
	for i := range b.maps {
		m := &b.maps[i]
		if lo < m.base+m.size && m.base < hi {
			return true
		}
	}
	return false
}

// Load reads size bytes (1, 4 or 8) at physical address addr.
func (b *Bus) Load(addr uint64, size int) (uint64, error) {
	if m := b.find(addr); m != nil {
		return m.dev.Load(addr-m.base, size)
	}
	switch size {
	case 1:
		return uint64(b.RAM.Read8(addr)), nil
	case 4:
		return uint64(b.RAM.Read32(addr)), nil
	case 8:
		return b.RAM.Read64(addr), nil
	}
	return 0, fmt.Errorf("mem: bad load size %d", size)
}

// PageForLoad returns the RAM page backing the page containing pa for
// the host-pointer fast path, or nil when the page has never been
// touched or any device window overlaps it — device-mapped ranges never
// get a host pointer and must keep taking the Load/Store path.
func (b *Bus) PageForLoad(pa uint64) *[PageSize]byte {
	page := pa &^ uint64(PageSize-1)
	if b.findOverlap(page, page+PageSize) {
		return nil
	}
	return b.RAM.PageForLoad(pa)
}

// PageForStore is PageForLoad for writes: it returns the private
// writable page (materializing a copy-on-write copy, which bumps
// RAM.Gen), or nil when a device window overlaps the page.
func (b *Bus) PageForStore(pa uint64) *[PageSize]byte {
	page := pa &^ uint64(PageSize-1)
	if b.findOverlap(page, page+PageSize) {
		return nil
	}
	return b.RAM.PageForStore(pa)
}

// Store writes size bytes (1, 4 or 8) at physical address addr.
func (b *Bus) Store(addr uint64, size int, v uint64) error {
	if m := b.find(addr); m != nil {
		return m.dev.Store(addr-m.base, size, v)
	}
	switch size {
	case 1:
		b.RAM.Write8(addr, byte(v))
	case 4:
		b.RAM.Write32(addr, uint32(v))
	case 8:
		b.RAM.Write64(addr, v)
	default:
		return fmt.Errorf("mem: bad store size %d", size)
	}
	return nil
}
