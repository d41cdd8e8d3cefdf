// Package unikernel models guests: MirageOS unikernels (§2.3) and the
// legacy Linux VMs the paper compares against. A guest is a Xen domain
// plus a boot pipeline plus — once netfront comes up — a real netstack
// Host running its application.
//
// The boot timeline deliberately reproduces the §3.3 race window: the
// toolstack finishes (and Jitsu answers DNS) *before* the guest's
// network stack is live, so early SYNs are lost unless Synjitsu catches
// them.
package unikernel

import (
	"errors"
	"fmt"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/xen"
)

// ErrNoApp is returned when an image has no application factory.
var ErrNoApp = errors.New("unikernel: image has no app")

// App is the guest application: it binds sockets on the guest stack and
// reports readiness (the moment the unikernel can serve traffic).
type App interface {
	Start(g *Guest, ready func()) error
}

// Image describes a bootable guest.
type Image struct {
	Name      string
	Kind      xen.GuestKind
	MemMiB    int     // 16 for unikernels, 64+ for Linux (§3.1(i))
	BinaryMiB float64 // ~1 MiB unikernel, ~20 MiB Linux image
	App       App
}

// UnikernelImage returns the standard MirageOS appliance profile:
// "unikernels require such small amounts of memory to boot (8MB is
// plenty)" — we give them 16 like the Figure 4 sweep's smallest point,
// "the small binary size of unikernels (around 1MB)".
func UnikernelImage(name string, app App) Image {
	return Image{Name: name, Kind: xen.GuestUnikernel, MemMiB: 16, BinaryMiB: 1, App: app}
}

// LinuxImage returns a conventional VM profile: "modern Linux
// distributions ... typically require at least 64MB".
func LinuxImage(name string, app App) Image {
	return Image{Name: name, Kind: xen.GuestLinux, MemMiB: 64, BinaryMiB: 20, App: app}
}

// Guest is a running (or booting) VM.
type Guest struct {
	Image  Image
	Domain *xen.Domain
	// Stack is the guest's network endpoint; valid once NetworkUp.
	Stack *netstack.Host
	NIC   *netsim.NIC
	IP    netstack.IP

	// Timeline marks, all in virtual time.
	LaunchedAt  sim.Duration // toolstack invoked
	BuiltAt     sim.Duration // domain construction complete (DNS answerable)
	NetworkUpAt sim.Duration // netfront live: packets flow
	ReadyAt     sim.Duration // app serving

	Ready bool

	launcher   *Launcher
	bridgePort netsim.Port
}

// Uptime since the app became ready (0 if not ready).
func (g *Guest) Uptime() sim.Duration {
	if !g.Ready {
		return 0
	}
	return g.launcher.TS.Hypervisor().Eng.Now() - g.ReadyAt
}

// Launcher boots guests onto a host bridge.
type Launcher struct {
	TS     *xen.Toolstack
	Bridge *netsim.Bridge
	// VifLatency/VifBitsPerSec describe the intra-host vif link.
	VifLatency    sim.Duration
	VifBitsPerSec float64
	// Profiles may be overridden for experiments.
	MirageProfile netstack.StackProfile
	LinuxProfile  netstack.StackProfile
}

// NewLauncher wires a launcher with the standard profiles.
func NewLauncher(ts *xen.Toolstack, bridge *netsim.Bridge) *Launcher {
	return &Launcher{
		TS: ts, Bridge: bridge,
		VifLatency:    20 * time.Microsecond,
		MirageProfile: netstack.MirageProfile(),
		LinuxProfile:  netstack.LinuxGuestProfile(),
	}
}

// RestoreBootFraction scales guest-side bring-up for a restored guest:
// a restore skips runtime init and replays checkpointed state instead of
// cold-booting the OS, so only netfront re-attach and app re-bind remain.
const RestoreBootFraction = 0.25

// Launch builds the domain, boots the guest OS, attaches the network and
// starts the app. done fires when the app is ready; the intermediate
// timeline marks stay on the Guest for the latency breakdowns.
func (l *Launcher) Launch(img Image, ip netstack.IP, done func(*Guest, error)) {
	l.launch(img, ip, 1.0, done)
}

// Restore is Launch for a migrated-in guest: the domain is built the
// same way (memory must still be allocated and the vif plugged), but the
// guest-side boot replays a checkpoint instead of cold-starting, so it
// costs RestoreBootFraction of the normal bring-up.
func (l *Launcher) Restore(img Image, ip netstack.IP, done func(*Guest, error)) {
	l.launch(img, ip, RestoreBootFraction, done)
}

func (l *Launcher) launch(img Image, ip netstack.IP, bootScale float64, done func(*Guest, error)) {
	hyp := l.TS.Hypervisor()
	eng := hyp.Eng
	g := &Guest{Image: img, IP: ip, LaunchedAt: eng.Now(), launcher: l}
	if img.App == nil {
		done(nil, ErrNoApp)
		return
	}
	cfg := xen.DomainConfig{Name: img.Name, Kind: img.Kind, MemMiB: img.MemMiB, ImageMiB: img.BinaryMiB}
	l.TS.CreateDomain(cfg, func(d *xen.Domain, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		g.Domain = d
		g.BuiltAt = eng.Now()
		// The vif exists and is bridged now (the toolstack did that),
		// but the guest hasn't booted: the NIC stays Down, so traffic
		// for this IP falls on the floor — the Synjitsu race window.
		g.NIC = netsim.NewNIC(eng, fmt.Sprintf("vif%d.0", int(d.ID)), netsim.MACFor(int(d.ID)))
		g.NIC.Down = true
		g.bridgePort = l.Bridge.ConnectNIC(g.NIC, l.VifLatency, l.VifBitsPerSec)

		profile := l.MirageProfile
		bootCost := hyp.Platform.UnikernelBoot
		if img.Kind == xen.GuestLinux {
			profile = l.LinuxProfile
			bootCost = hyp.Platform.LinuxBoot
		}
		// Guest-side boot: assembler bring-up, runtime init, netfront
		// attach (§2.3's boot pipeline), with the usual jitter.
		boot := sim.LogNormal{Median: sim.Duration(float64(bootCost) * bootScale), Sigma: 0.08}.Sample(eng.Rand())
		eng.After(boot, func() {
			g.Stack = netstack.NewHost(eng, img.Name, g.NIC, ip, profile)
			if err := img.App.Start(g, func() {
				g.NIC.Down = false
				g.NetworkUpAt = eng.Now()
				g.announce()
				g.Ready = true
				g.ReadyAt = eng.Now()
				done(g, nil)
			}); err != nil {
				done(nil, err)
			}
		})
	})
}

// announce sends a gratuitous ARP so bridges and peers learn (or
// re-learn, after a Synjitsu handoff) where the service IP lives.
func (g *Guest) announce() {
	pkt := netstack.ARPPacket{
		Op: netstack.ARPReply, SenderMAC: g.NIC.Addr, SenderIP: g.IP,
		TargetMAC: netsim.Broadcast, TargetIP: g.IP,
	}
	eth := netstack.Ethernet{Dst: netsim.Broadcast, Src: g.NIC.Addr, EtherType: netstack.EtherTypeARP}
	frame := make([]byte, netstack.EthernetHeaderLen+netstack.ARPLen)
	eth.EncodeInto(frame)
	pkt.EncodeInto(frame[netstack.EthernetHeaderLen:])
	_ = g.NIC.Send(frame)
}

// Destroy tears the guest down and unplugs its vif.
func (l *Launcher) Destroy(g *Guest, done func(error)) {
	if g.bridgePort != nil {
		l.Bridge.RemovePort(g.bridgePort)
		g.bridgePort = nil
	}
	if g.NIC != nil {
		g.NIC.Down = true
	}
	g.Ready = false
	if g.Domain == nil {
		done(nil)
		return
	}
	l.TS.DestroyDomain(g.Domain.ID, done)
}
