"""Synthetic deposit-free leasing platform (stand-in for Jimi Store data).

The proprietary dataset of the paper cannot be redistributed, so this module
generates a population whose *measurable behavioural structure* matches what
Section III-B reports:

* **time burst** — fraudsters' behavior logs concentrate in a short window
  around their application, normal users' logs spread uniformly;
* **temporal aggregation** — logs sharing the same ``(type, value)`` occur at
  small pairwise time intervals for fraudsters (ring activity windows of 0–3
  days) but spread smoothly for normal users;
* **homophily** — fraud rings share devices / SIMs / IPs / locations, so
  fraudster neighbourhoods in BN are fraud-dense;
* **structural difference** — ring resource sharing plus bursty co-occurrence
  gives fraudster nodes larger (weighted) degrees.

Public resources (shared Wi-Fi, exit IPs, mall locations) inject the
*uncertainty* the paper emphasises: big cliques of unrelated normal users
that the inverse weight assignment must down-weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior_types import BehaviorType
from .config import GeneratorConfig
from .entities import DAY, HOUR, BehaviorLog, Dataset, Transaction, User

__all__ = ["LeasingPlatformSimulator"]


@dataclass(slots=True)
class UserPersona:
    """The (hidden) resource identity of a user, driving log emission."""

    uid: int
    devices: list[str]
    imeis: list[str]
    sims: list[str]
    home_ip: str
    home_wifi: str
    home_grid: str
    workplace: str | None = None
    work_ip: str | None = None
    work_wifi: str | None = None
    work_grid: str | None = None
    delivery_grid: str | None = None
    #: proxy/VPN exit IPs this user sometimes routes through (privacy tools
    #: whose exits overlap with the grey industry's farm proxies).
    vpn_ips: list[str] | None = None


class LeasingPlatformSimulator:
    """Generates a :class:`~repro.datagen.entities.Dataset`.

    Parameters
    ----------
    config:
        Generation knobs; see :class:`~repro.datagen.config.GeneratorConfig`.
    seed:
        Seed for the internal ``numpy.random.Generator``; generation is fully
        deterministic given ``(config, seed)``.
    namespace:
        Optional prefix applied to every generated identifier (device ids,
        IPs, ...).  Independently generated datasets should use distinct
        namespaces so their identifier spaces do not collide — e.g. the
        concept-drift scenario, where each period's crews run fresh hardware.
    """

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        seed: int = 0,
        namespace: str = "",
    ) -> None:
        self.config = config or GeneratorConfig()
        self.config.validate()
        self.namespace = namespace
        self.rng = np.random.default_rng(seed)
        self._uid = 0
        self._txn_id = 0
        self._counters: dict[str, int] = {}
        #: devices that keep their own SIM (café terminals, family tablets):
        #: whoever uses the device logs its resident IMSI.
        self._resident_sims: dict[str, str] = {}
        self._farm_ips: list[str] = []
        self._cgnat_ips: list[str] = []
        self._public_pools: dict[str, list[str]] | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, name: str = "synthetic") -> Dataset:
        """Run the simulation and return the complete dataset."""
        cfg = self.config
        dataset = Dataset(name=name, start_time=0.0, end_time=cfg.span_seconds)

        n_fraud = int(round(cfg.n_users * cfg.fraud_rate))
        n_ring_fraud = int(round(n_fraud * cfg.ring_fraction))
        n_lone_fraud = n_fraud - n_ring_fraud
        n_normal = cfg.n_users - n_fraud

        public = self._make_public_pools()
        self._public_pools = public
        workplaces = self._make_workplaces(n_normal)
        # Grey-industry infrastructure shared *across* rings (device-farm
        # proxy exits).  This links rings to each other, giving fraudster
        # nodes the larger n-hop degrees of Fig. 4h while keeping those
        # cliques fraud-dense (homophily, Fig. 4d).
        self._farm_ips = [self._fresh("farm_ip") for _ in range(cfg.n_farm_ips)]
        n_cgnat = max(1, int(round(n_normal * cfg.p_cgnat_household / (2.5 * cfg.households_per_cgnat_ip))))
        self._cgnat_ips = [self._fresh("cgnat_ip") for _ in range(n_cgnat)]

        self._spawn_normal_users(dataset, n_normal, public, workplaces)
        self._spawn_fraud_rings(dataset, n_ring_fraud, public)
        self._spawn_lone_fraudsters(dataset, n_lone_fraud, public)
        if cfg.rejected_applicant_fraction > 0:
            n_rejected = int(round(cfg.n_users * cfg.rejected_applicant_fraction))
            self._spawn_rejected_applicants(dataset, n_rejected, public)

        dataset.logs.sort(key=lambda log: log.timestamp)
        dataset.transactions.sort(key=lambda txn: txn.created_at)
        return dataset

    # ------------------------------------------------------------------
    # Resource pools
    # ------------------------------------------------------------------
    def _pick_popular(self, n: int) -> int:
        """Zipf-like index choice: rank-1 items draw most of the traffic."""
        weights = 1.0 / np.arange(1.0, n + 1.0)
        return int(self.rng.choice(n, p=weights / weights.sum()))

    def _fresh(self, prefix: str) -> str:
        index = self._counters.get(prefix, 0)
        self._counters[prefix] = index + 1
        return f"{self.namespace}{prefix}_{index}"

    def _make_public_pools(self) -> dict[str, list[str]]:
        cfg = self.config
        return {
            "wifi": [self._fresh("pub_wifi") for _ in range(cfg.n_public_wifi)],
            "ip": [self._fresh("pub_ip") for _ in range(cfg.n_public_ip)],
            "grid": [self._fresh("pub_grid") for _ in range(cfg.n_public_gps)],
            # Internet-café terminals and demo phones: shared devices (with
            # their resident SIM) that connect unrelated legitimate users.
            "device": [self._fresh("cafe_dev") for _ in range(cfg.n_cafe_devices)],
        }

    def _make_workplaces(self, n_normal: int) -> list[dict[str, str]]:
        count = max(1, int(round(n_normal / self.config.users_per_workplace)))
        workplaces = []
        for _ in range(count):
            wid = self._fresh("wp")
            workplaces.append(
                {
                    "id": wid,
                    "ip": f"{wid}_ip",
                    "wifi": f"{wid}_wifi",
                    "grid": f"{wid}_grid",
                }
            )
        return workplaces

    # ------------------------------------------------------------------
    # Normal users
    # ------------------------------------------------------------------
    def _spawn_normal_users(
        self,
        dataset: Dataset,
        count: int,
        public: dict[str, list[str]],
        workplaces: list[dict[str, str]],
    ) -> None:
        cfg = self.config
        rng = self.rng
        spawned = 0
        while spawned < count:
            # A fraction of users share a household: same Wi-Fi, exit IP and
            # location grid, and sometimes a family device.  These are dense
            # legitimate cliques a graph model must not confuse with rings.
            roll = rng.random()
            is_dorm = roll < cfg.p_dorm_group
            if is_dorm:
                size = int(rng.integers(cfg.dorm_size_min, cfg.dorm_size_max + 1))
            elif roll < cfg.p_dorm_group + cfg.p_household_member:
                size = int(rng.integers(2, cfg.household_size_max + 1))
            else:
                size = 1
            size = min(size, count - spawned)
            if rng.random() < cfg.p_cgnat_household and self._cgnat_ips:
                home_ip = self._cgnat_ips[int(rng.integers(len(self._cgnat_ips)))]
            else:
                home_ip = self._fresh("home_ip")
            home = {
                "ip": home_ip,
                "wifi": self._fresh("home_wifi"),
                "grid": self._fresh("home_grid"),
            }
            shared_devices: list[str] = []
            if is_dorm:
                shared_devices = [
                    self._fresh("dorm_dev") for _ in range(cfg.dorm_shared_devices)
                ]
            elif size > 1 and rng.random() < cfg.p_household_shared_device:
                shared_devices = [self._fresh("dev")]
            members: list[tuple[User, UserPersona]] = []
            for _ in range(size):
                registered = rng.uniform(0.0, 0.85 * cfg.span_seconds)
                user = self._new_user(registered, is_fraud=False)
                self._fill_normal_profile(user)
                if is_dorm:
                    self._adjust_student_profile(user)
                shared = None
                if shared_devices:
                    shared = shared_devices[int(rng.integers(len(shared_devices)))]
                persona = self._normal_persona(user.uid, home, shared)
                if rng.random() < cfg.p_normal_vpn_user and self._farm_ips:
                    persona.vpn_ips = list(
                        rng.choice(self._farm_ips, size=min(2, len(self._farm_ips)), replace=False)
                    )
                if rng.random() < cfg.workplace_participation and workplaces:
                    wp = workplaces[rng.integers(len(workplaces))]
                    persona.workplace = wp["id"]
                    persona.work_ip = wp["ip"]
                    persona.work_wifi = wp["wifi"]
                    persona.work_grid = wp["grid"]
                persona.delivery_grid = persona.home_grid
                members.append((user, persona))

            for user, persona in members:
                dataset.users.append(user)
                home_times = self._emit_normal_sessions(dataset, user, persona, public)
                self._make_normal_transactions(dataset, user, persona)
                # Household co-presence: when one member is online at home in
                # the evening, the others often are too — these co-occurrences
                # give legitimate households ring-like BN edge weights.
                for other_user, other_persona in members:
                    if other_user.uid == user.uid:
                        continue
                    copresence = 0.3 if is_dorm else cfg.p_household_copresence
                    for t in home_times:
                        if t < other_user.registered_at:
                            continue
                        if rng.random() < copresence:
                            # Same evening, not the same minute: the pair is
                            # caught by the coarser windows of the hierarchy
                            # but only sometimes by the 1-hour one.
                            jittered = float(
                                np.clip(
                                    t + rng.normal(0.0, 90 * 60),
                                    other_user.registered_at,
                                    cfg.span_seconds,
                                )
                            )
                            self._emit_session(
                                dataset, other_user.uid, other_persona, jittered, "home", public
                            )
                spawned += 1

    def _normal_persona(
        self,
        uid: int,
        home: dict[str, str] | None = None,
        shared_device: str | None = None,
    ) -> UserPersona:
        rng = self.rng
        devices = [self._fresh("dev")]
        if shared_device is not None:
            devices.append(shared_device)
            # A shared device keeps its resident SIM, so every household
            # member using it logs the same IMSI.
            self._resident_sims.setdefault(shared_device, f"sim_of_{shared_device}")
        elif rng.random() < self.config.p_second_device:
            devices.append(self._fresh("dev"))
        if home is None:
            home = {
                "ip": self._fresh("home_ip"),
                "wifi": self._fresh("home_wifi"),
                "grid": self._fresh("home_grid"),
            }
        return UserPersona(
            uid=uid,
            devices=devices,
            imeis=[f"imei_{d}" for d in devices],
            sims=[self._fresh("sim")],
            home_ip=home["ip"],
            home_wifi=home["wifi"],
            home_grid=home["grid"],
        )

    def _emit_normal_sessions(
        self,
        dataset: Dataset,
        user: User,
        persona: UserPersona,
        public: dict[str, list[str]],
    ) -> list[float]:
        """Normal logs scatter over the whole membership (Fig. 4a).

        Returns the home-session times so household co-presence can mirror
        them for the other members.
        """
        cfg = self.config
        rng = self.rng
        home_times: list[float] = []
        n_sessions = max(
            cfg.normal_sessions_min, rng.poisson(cfg.normal_sessions_mean)
        )
        # Real activity is clumpy: sessions cluster around "active days"
        # rather than arriving as a homogeneous Poisson process, so the
        # burstiness statistics of normal users overlap with fraudsters'.
        n_clusters = max(3, n_sessions // 3)
        centers = rng.uniform(user.registered_at, cfg.span_seconds, size=n_clusters)
        times = centers[rng.integers(n_clusters, size=n_sessions)]
        times = times + rng.normal(0.0, 6 * HOUR, size=n_sessions)
        times = np.clip(times, user.registered_at, cfg.span_seconds)
        # Young users (students) hang out in internet cafés and malls far
        # more, which plants fraud-adjacent profiles inside the public
        # cliques that rings also camp in: only the (inverse, hierarchical)
        # edge weights distinguish a bystander from a ring member.
        p_public = cfg.p_public_session * (2.5 if user.age < 25.0 else 1.0)
        for t in np.sort(times):
            place = "home"
            roll = rng.random()
            if persona.workplace is not None and roll < cfg.p_work_session:
                place = "work"
            elif roll < cfg.p_work_session + p_public:
                place = "public"
            t = float(t)
            if place == "home":
                # Home usage concentrates in the evening, so household
                # members co-occur in the same small epochs day after day —
                # their accumulated BN weights rival a fraud ring's.
                hour = rng.normal(20.5, 2.5) % 24.0
                t = float(np.floor(t / DAY) * DAY + hour * HOUR)
                t = float(np.clip(t, user.registered_at, cfg.span_seconds))
                home_times.append(t)
            self._emit_session(dataset, user.uid, persona, t, place, public)
        return home_times

    def _emit_session(
        self,
        dataset: Dataset,
        uid: int,
        persona: UserPersona,
        t: float,
        place: str,
        public: dict[str, list[str]],
        device_index: int | None = None,
        ip_override: str | None = None,
    ) -> None:
        rng = self.rng
        if device_index is None:
            device_index = int(rng.integers(len(persona.devices)))
        device = persona.devices[device_index]
        imei = persona.imeis[device_index]
        if place == "public" and rng.random() < self.config.p_cafe_device:
            device = public["device"][int(rng.integers(len(public["device"])))]
            imei = f"imei_{device}"
            self._resident_sims.setdefault(device, f"sim_of_{device}")
        resident_sim = self._resident_sims.get(device)
        if resident_sim is not None:
            sim = resident_sim
        else:
            sim = persona.sims[int(rng.integers(len(persona.sims)))]

        if place == "work":
            ip, wifi, grid = persona.work_ip, persona.work_wifi, persona.work_grid
        elif place == "public":
            # Popularity-skewed choice: a few hotspots capture most traffic,
            # which is what makes them dense, uncertain cliques.
            spot = self._pick_popular(len(public["wifi"]))
            wifi = public["wifi"][spot]
            grid = public["grid"][spot % len(public["grid"])]
            ip = public["ip"][self._pick_popular(len(public["ip"]))]
        else:
            ip, wifi, grid = persona.home_ip, persona.home_wifi, persona.home_grid
            if (
                persona.vpn_ips
                and rng.random() < self.config.p_vpn_session
            ):
                ip = persona.vpn_ips[int(rng.integers(len(persona.vpn_ips)))]
        if ip_override is not None:
            ip = ip_override

        jitter = rng.uniform(0.0, 10 * 60, size=6)
        logs = dataset.logs
        logs.append(BehaviorLog(uid, BehaviorType.DEVICE_ID, device, t + jitter[0]))
        logs.append(BehaviorLog(uid, BehaviorType.IMEI, imei, t + jitter[1]))
        logs.append(BehaviorLog(uid, BehaviorType.IMSI, sim, t + jitter[2]))
        logs.append(BehaviorLog(uid, BehaviorType.IPV4, ip, t + jitter[3]))
        logs.append(BehaviorLog(uid, BehaviorType.WIFI_MAC, wifi, t + jitter[4]))
        logs.append(BehaviorLog(uid, BehaviorType.GPS_100, grid, t + jitter[5]))
        if rng.random() < 0.3:
            precise = f"{grid}@{rng.integers(10**6)}"
            logs.append(BehaviorLog(uid, BehaviorType.GPS, precise, t + jitter[5]))
        if place == "work" and persona.workplace is not None:
            logs.append(
                BehaviorLog(uid, BehaviorType.WORKPLACE, persona.workplace, t + jitter[0])
            )

    def _make_normal_transactions(
        self, dataset: Dataset, user: User, persona: UserPersona
    ) -> None:
        cfg = self.config
        rng = self.rng
        n_apps = max(1, rng.poisson(cfg.normal_applications_mean))
        # Users register because they want to lease: the first application
        # comes shortly after registration (otherwise account age would be a
        # give-away separating normal users from freshly-registered rings).
        first = user.registered_at + rng.uniform(
            HOUR, cfg.first_application_within_days * DAY
        )
        first = min(first, cfg.span_seconds)
        times = [first]
        if n_apps > 1:
            lo = min(first + HOUR, cfg.span_seconds)
            times.extend(rng.uniform(lo, cfg.span_seconds, size=n_apps - 1))
        # A small share of ordinary users default and keep the goods, which
        # makes them fraudsters under the payment-based label even though
        # nothing in their behavior or graph gives them away.
        defaults = rng.random() < cfg.p_normal_default
        times = np.sort(times)
        for i, t in enumerate(times):
            is_default = defaults and i == len(times) - 1
            if is_default:
                user.is_fraud = True
            txn = self._new_transaction(user, float(t), fraud=is_default)
            dataset.transactions.append(txn)
            self._emit_delivery_logs(dataset, user.uid, persona, float(t))

    def _emit_delivery_logs(
        self, dataset: Dataset, uid: int, persona: UserPersona, t: float
    ) -> None:
        grid = persona.delivery_grid or persona.home_grid
        dataset.logs.append(BehaviorLog(uid, BehaviorType.GPS_DEV_100, grid, t))
        precise = f"{grid}@{self.rng.integers(10**6)}"
        dataset.logs.append(BehaviorLog(uid, BehaviorType.GPS_DEV, precise, t))

    # ------------------------------------------------------------------
    # Fraud rings
    # ------------------------------------------------------------------
    def _spawn_fraud_rings(
        self, dataset: Dataset, total_members: int, public: dict[str, list[str]]
    ) -> None:
        cfg = self.config
        rng = self.rng
        sizes: list[int] = []
        remaining = total_members
        while remaining > 0:
            size = int(
                np.clip(
                    rng.poisson(cfg.mean_ring_size),
                    cfg.min_ring_size,
                    cfg.max_ring_size,
                )
            )
            size = min(size, max(remaining, cfg.min_ring_size))
            sizes.append(size)
            remaining -= size
        # Fraud campaigns come in waves: several rings strike within the same
        # few days (sharing the farm proxies), which produces the cross-ring
        # connectivity behind the large fraudster degrees of Fig. 4h.
        n_waves = max(1, len(sizes) // cfg.rings_per_wave)
        waves = rng.uniform(
            0.05 * cfg.span_seconds, 0.9 * cfg.span_seconds, size=n_waves
        )
        for ring_id, size in enumerate(sizes):
            wave = waves[int(rng.integers(n_waves))]
            ring_start = wave + rng.uniform(0.0, cfg.wave_spread_days * DAY)
            self._spawn_one_ring(dataset, ring_id, size, public, ring_start)

    def _spawn_one_ring(
        self,
        dataset: Dataset,
        ring_id: int,
        size: int,
        public: dict[str, list[str]],
        ring_start: float | None = None,
    ) -> None:
        cfg = self.config
        rng = self.rng
        if ring_start is None:
            ring_start = rng.uniform(0.05 * cfg.span_seconds, 0.92 * cfg.span_seconds)
        ring_start = float(np.clip(ring_start, 0.0, 0.95 * cfg.span_seconds))
        window = rng.uniform(0.5 * DAY, cfg.ring_window_days_max * DAY)

        n_devices = max(1, math.ceil(size / cfg.members_per_ring_device))
        n_sims = max(1, math.ceil(size / cfg.members_per_ring_sim))
        devices = [self._fresh("ring_dev") for _ in range(n_devices)]
        imeis = [f"imei_{d}" for d in devices]
        share_sims = rng.random() < cfg.p_ring_shares_sims
        sims = [self._fresh("ring_sim") for _ in range(n_sims)]
        ring_ips = [self._fresh("ring_ip") for _ in range(1 + int(size > 8))]
        if rng.random() < cfg.p_ring_in_public and self._public_pools is not None:
            # The ring camps in a public place: its Wi-Fi/location clique
            # will also contain innocent bystanders.
            spot = self._pick_popular(len(self._public_pools["wifi"]))
            ring_wifi = self._public_pools["wifi"][spot]
            ring_grid = self._public_pools["grid"][spot % len(self._public_pools["grid"])]
        else:
            ring_wifi = self._fresh("ring_wifi")
            ring_grid = self._fresh("ring_grid")
        delivery_grid = self._fresh("ring_delivery")
        # Device farms run their accounts in synchronized batches: the crew's
        # sessions cluster around shared "operation slots", which is what
        # drives the minute-scale temporal aggregation of Fig. 4c and the
        # heavy fraud edge weights of Fig. 4i.
        ring_slots = np.sort(
            rng.uniform(ring_start - 0.5 * DAY, ring_start + window, size=20)
        )

        for _ in range(size):
            # Half the ring uses freshly-registered accounts, half uses aged
            # stolen/purchased accounts — account age alone must not separate.
            if rng.random() < 0.5:
                registered = ring_start - rng.uniform(0.0, 7 * DAY)
            else:
                registered = ring_start - rng.uniform(30 * DAY, 300 * DAY)
            registered = max(0.0, registered)
            # The label follows the payments, not the crew: an affiliate who
            # keeps paying is, by the paper's definition, not a fraudster.
            pays = rng.random() < cfg.p_ring_member_pays
            user = self._new_user(registered, is_fraud=not pays, ring_id=ring_id)
            user.packaged_identity = rng.random() < cfg.p_packaged_identity
            if user.packaged_identity:
                self._fill_normal_profile(user)
            else:
                self._fill_fraud_profile(user)
            dataset.users.append(user)

            if rng.random() < cfg.p_peripheral_member:
                # Peripheral members look mostly like normal users: own
                # device/SIM/home, plus a thin link into the ring.
                own = self._fresh("dev")
                ring_device_idx = int(rng.integers(len(devices)))
                persona = UserPersona(
                    uid=user.uid,
                    devices=[own, devices[ring_device_idx]],
                    imeis=[f"imei_{own}", imeis[ring_device_idx]],
                    sims=[self._fresh("sim")],
                    home_ip=self._fresh("home_ip"),
                    home_wifi=self._fresh("home_wifi"),
                    home_grid=(
                        ring_grid if rng.random() < 0.5 else self._fresh("home_grid")
                    ),
                )
            else:
                persona = UserPersona(
                    uid=user.uid,
                    devices=list(devices),
                    imeis=list(imeis),
                    sims=list(sims) if share_sims else [self._fresh("sim")],
                    home_ip=ring_ips[int(rng.integers(len(ring_ips)))],
                    home_wifi=ring_wifi,
                    home_grid=ring_grid,
                )
                if rng.random() < cfg.p_member_own_device:
                    own = self._fresh("dev")
                    persona.devices.append(own)
                    persona.imeis.append(f"imei_{own}")
            if rng.random() < cfg.p_shared_delivery:
                persona.delivery_grid = delivery_grid
            else:
                persona.delivery_grid = self._fresh("home_grid")

            app_time = ring_start + rng.uniform(0.0, window)
            txn = self._new_transaction(user, app_time, fraud=user.is_fraud)
            dataset.transactions.append(txn)
            self._emit_fraud_sessions(
                dataset, user, persona, app_time, public, slots=ring_slots
            )
            self._emit_delivery_logs(dataset, user.uid, persona, app_time)

    def _emit_fraud_sessions(
        self,
        dataset: Dataset,
        user: User,
        persona: UserPersona,
        app_time: float,
        public: dict[str, list[str]],
        slots: np.ndarray | None = None,
    ) -> None:
        """Fraud logs burst around the application time (Fig. 4b).

        Ring members with ``slots`` synchronize most sessions to the crew's
        operation slots (batched account farming).
        """
        cfg = self.config
        rng = self.rng
        n_sessions = max(4, rng.poisson(cfg.fraud_sessions_mean))
        careful = rng.random() < cfg.p_careful_fraudster
        if careful:
            # Careful fraudsters spread their footprint over ~two weeks,
            # diluting the time-burst signal the detector could lean on.
            before = cfg.careful_spread_days * DAY
        else:
            before = cfg.fraud_burst_before
        lo = max(user.registered_at, app_time - before)
        hi = min(cfg.span_seconds, app_time + cfg.fraud_burst_after)
        times = rng.uniform(lo, hi, size=n_sessions)
        if slots is not None and not careful:
            synced = rng.random(n_sessions) < 0.8
            chosen = slots[rng.integers(len(slots), size=n_sessions)]
            chosen = chosen + rng.normal(0.0, 10 * 60, size=n_sessions)
            times = np.where(synced, np.clip(chosen, lo, hi), times)
        for t in np.sort(times):
            # Device farms route part of their traffic through shared proxy
            # exits (cross-ring infrastructure) and occasionally through
            # public resources, blending fraudsters into public cliques.
            roll = rng.random()
            ip_override = None
            place = "home"
            if roll < cfg.p_farm_proxy_session and self._farm_ips:
                ip_override = self._farm_ips[int(rng.integers(len(self._farm_ips)))]
            elif roll < cfg.p_farm_proxy_session + 0.15:
                place = "public"
            self._emit_session(
                dataset, user.uid, persona, float(t), place, public, ip_override=ip_override
            )

    # ------------------------------------------------------------------
    # Lone fraudsters
    # ------------------------------------------------------------------
    def _spawn_lone_fraudsters(
        self, dataset: Dataset, count: int, public: dict[str, list[str]]
    ) -> None:
        """Fraudsters without a ring: normal-looking graph, bad features."""
        cfg = self.config
        rng = self.rng
        for _ in range(count):
            registered = rng.uniform(0.0, 0.9 * cfg.span_seconds)
            user = self._new_user(registered, is_fraud=True, ring_id=None)
            self._fill_fraud_profile(user)
            dataset.users.append(user)

            persona = self._normal_persona(user.uid)
            persona.delivery_grid = persona.home_grid
            app_time = rng.uniform(
                registered + HOUR, min(cfg.span_seconds, registered + 60 * DAY)
            )
            txn = self._new_transaction(user, app_time, fraud=True)
            dataset.transactions.append(txn)
            self._emit_fraud_sessions(dataset, user, persona, app_time, public)
            self._emit_delivery_logs(dataset, user.uid, persona, app_time)

    # ------------------------------------------------------------------
    # D2-style rejected applicants
    # ------------------------------------------------------------------
    def _spawn_rejected_applicants(
        self, dataset: Dataset, count: int, public: dict[str, list[str]]
    ) -> None:
        """Applicants Jimi's original rule system would reject (D2 positives).

        The paper's D2 counts applications rejected by the original risk
        management system as positive samples; these are dominated by sloppy
        fraud attempts with blatantly bad profiles and heavy resource reuse,
        which is why Table IV's absolute metrics are far higher than D1's.
        """
        cfg = self.config
        rng = self.rng
        remaining = count
        ring_id = 10_000  # keep rejected-crew ids disjoint from regular rings
        while remaining > 0:
            size = int(np.clip(rng.poisson(12.0), 4, 40))
            size = min(size, max(remaining, 4))
            self._spawn_one_ring(dataset, ring_id, size, public)
            # Overwrite the profile/labels of the crew just created: blatant
            # fraud features (never packaged) and rejected-by-rules marks.
            # Rejection itself makes the application a positive sample under
            # D2's labeling, so the payment-based relabeling of ring
            # affiliates does not apply here.
            for user in dataset.users[-size:]:
                user.packaged_identity = False
                user.is_fraud = True
                self._fill_fraud_profile(user)
                user.credit_score -= rng.uniform(20.0, 80.0)
                user.third_party_score = float(
                    np.clip(user.third_party_score - 0.2, 0.01, 1.0)
                )
            for txn in dataset.transactions[-size:]:
                txn.rejected_by_rules = True
                txn.is_fraud = True
            remaining -= size
            ring_id += 1

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------
    def _new_user(
        self, registered_at: float, is_fraud: bool, ring_id: int | None = None
    ) -> User:
        user = User(uid=self._uid, registered_at=registered_at, is_fraud=is_fraud, ring_id=ring_id)
        self._uid += 1
        return user

    def _fill_normal_profile(self, user: User) -> None:
        rng = self.rng
        user.age = float(np.clip(rng.normal(33.0, 8.0), 18.0, 65.0))
        user.credit_score = float(np.clip(rng.normal(680.0, 50.0), 350.0, 850.0))
        user.income_level = float(np.clip(rng.normal(3.2, 0.8), 0.5, 8.0))
        user.occupation_code = int(rng.integers(0, 8))
        user.phone_verified = rng.random() < 0.97
        user.id_verified = rng.random() < 0.99
        user.third_party_score = float(np.clip(rng.beta(6.0, 2.0), 0.01, 1.0))
        user.historical_leases = int(rng.poisson(1.1))

    def _adjust_student_profile(self, user: User) -> None:
        """Dorm residents: young, thin credit file — fraud-adjacent features."""
        rng = self.rng
        user.age = float(rng.uniform(18.0, 24.0))
        user.credit_score = float(np.clip(user.credit_score - rng.uniform(20, 60), 350, 850))
        user.income_level = float(np.clip(user.income_level - 1.0, 0.5, 8.0))
        user.historical_leases = 0

    def _fill_fraud_profile(self, user: User) -> None:
        rng = self.rng
        user.age = float(np.clip(rng.normal(28.0, 7.0), 18.0, 65.0))
        user.credit_score = float(np.clip(rng.normal(625.0, 65.0), 350.0, 850.0))
        user.income_level = float(np.clip(rng.normal(2.7, 0.9), 0.5, 8.0))
        user.occupation_code = int(rng.choice([0, 1, 2, 7], p=[0.4, 0.3, 0.2, 0.1]))
        user.phone_verified = rng.random() < 0.9
        user.id_verified = rng.random() < 0.95
        user.third_party_score = float(np.clip(rng.beta(4.0, 2.5), 0.01, 1.0))
        user.historical_leases = int(rng.poisson(0.5))

    def _new_transaction(self, user: User, created_at: float, fraud: bool) -> Transaction:
        cfg = self.config
        rng = self.rng
        value = float(
            cfg.item_value_median * rng.lognormal(0.0, cfg.item_value_sigma)
        )
        if fraud:
            value *= cfg.fraud_item_value_boost
        lease_term = int(rng.choice(cfg.lease_terms))
        monthly_rent = value / lease_term * rng.uniform(1.05, 1.2)
        paid = int(rng.integers(1, 3)) if fraud else lease_term
        txn = Transaction(
            txn_id=self._txn_id,
            uid=user.uid,
            created_at=float(created_at),
            item_value=round(value, 2),
            lease_term=lease_term,
            monthly_rent=round(monthly_rent, 2),
            is_fraud=fraud,
            paid_periods=paid,
        )
        self._txn_id += 1
        return txn
