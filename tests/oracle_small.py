"""Independent brute-force executor for tiny scheduling scenarios.

Replays arrivals chronologically with explicit worker slots and plain list
queues. Used to cross-check the event-driven simulator on hand-enumerable
cases; deliberately shares no code with the package under test.
"""

FWD_US = 2.0  # switch processing + switch->server hop, mirrors the harness


class TieCollision(Exception):
    """Two events on the same instant at one server: the relative order is a
    tie-break convention, not schedule semantics, so the case is skipped."""


def _replay_server(jobs, n_workers, discipline, slice_us, clients=None,
                   weights=None):
    """jobs: list of (server_arrival_us, request_index, service_us) in
    arrival order. Returns {request_index: completion_us}.

    wfq: `clients[request_index]` is the request's client and `weights` the
    integer weight of each. Each client has its own FIFO, served in slice
    quanta; a client's turn runs up to its weight in slices, and the turn
    passes to the next client once it is spent or the client's queue is
    empty. The rest of a turn is forfeited whenever a worker is idle and
    every queue is empty."""
    wfq = discipline == "wfq"
    rem = {}
    done = {}
    queues = [[] for _ in weights] if wfq else [[]]   # request indices, FIFO
    turn, left = 0, 0                # wfq: whose turn, slices left in it
    running = [None] * n_workers     # request index per busy worker
    until = [0.0] * n_workers        # quantum end per busy worker
    quantum = [0.0] * n_workers
    i = 0
    while i < len(jobs) or any(r is not None for r in running):
        times = []
        if i < len(jobs):
            times.append(jobs[i][0])
        for w in range(n_workers):
            if running[w] is not None:
                times.append(until[w])
        t = min(times)
        if sum(1 for x in times if abs(x - t) < 1e-9) > 1:
            raise TieCollision
        if i < len(jobs) and jobs[i][0] == t:
            idx = jobs[i][1]
            rem[idx] = jobs[i][2]
            queues[clients[idx] if wfq else 0].append(idx)
            i += 1
        else:
            w = next(w for w in range(n_workers)
                     if running[w] is not None and until[w] == t)
            idx = running[w]
            rem[idx] -= quantum[w]
            running[w] = None
            if rem[idx] <= 0.0:
                done[idx] = t
            else:
                queues[clients[idx] if wfq else 0].append(idx)
        for w in range(n_workers):
            if running[w] is None and any(queues):
                if wfq:
                    while not queues[turn]:
                        turn, left = (turn + 1) % len(queues), 0
                    if left == 0:
                        left = weights[turn]
                    idx = queues[turn].pop(0)
                    left -= 1
                    if left == 0:
                        turn = (turn + 1) % len(queues)
                else:
                    idx = queues[0].pop(0)
                r = rem[idx]
                if discipline in ("ps", "wfq"):
                    q = r if r <= slice_us else slice_us
                else:
                    q = r
                running[w] = idx
                until[w] = t + q
                quantum[w] = q
        if None in running and not any(queues):
            left = 0
    return done


def _fewest_outstanding(per_server, t, n_workers, discipline, slice_us):
    """The server with the fewest requests outstanding at the switch at t,
    lowest index on ties: each request dispatched so far counts until its
    reply is collected, which is when the server completes it. A server's
    completions before t depend only on requests that reached it before t,
    and every request already dispatched is in `per_server`, so a replay of
    each server's requests so far gives them."""
    counts = []
    for jobs in per_server:
        done = _replay_server(jobs, n_workers, discipline, slice_us).values()
        if any(abs(c - t) < 1e-9 for c in done):
            raise TieCollision   # a reply and a dispatch at one instant
        counts.append(sum(1 for c in done if c > t))
    return counts.index(min(counts))


def brute_force(arrivals, services, n_servers, n_workers, discipline,
                slice_us=25.0, shortest=False, clients=None, weights=None):
    """Completion time per request for the given intra-server discipline
    ("fcfs", "ps" or "wfq", the last with each request's client and each
    client's weight) and round-robin dispatch over the servers (first
    request to server 0), or with `shortest`, dispatch to the server with
    the fewest requests outstanding at the switch.

    arrivals are switch-arrival times, strictly increasing; the executor adds
    the fixed forwarding delay itself.
    """
    per_server = [[] for _ in range(n_servers)]
    for idx, (t, s) in enumerate(zip(arrivals, services)):
        dst = idx % n_servers
        if shortest:
            dst = _fewest_outstanding(per_server, t, n_workers, discipline,
                                      slice_us)
        per_server[dst].append((t + FWD_US, idx, s))
    out = {}
    for jobs in per_server:
        out.update(_replay_server(jobs, n_workers, discipline, slice_us,
                                  clients, weights))
    return [out[i] for i in range(len(arrivals))]
