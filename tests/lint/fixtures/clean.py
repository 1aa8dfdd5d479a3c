"""A fully model-conformant program exercising every accepted idiom."""


class ConformantLock:
    def __init__(self, ns, delta):
        self.delta = float(delta)
        self.x = ns.register("x", None)
        self.b = ns.array("b", False)  # repro-lint: single-writer

    def entry(self, pid):
        yield self.b[pid].write(True)
        while True:
            value = yield self.x.read()
            if value is None:
                break
        yield self.x.write(pid)
        yield ops.delay(self.delta)
        yield ops.nap(self.delta / 4)  # a polling pause is an op like any other
        op = self.x.read()  # op bound to a local first
        value = yield op
        yield (self.x.read() if value == pid else self.b[pid].read())
        yield ops.label("cs_enter", pid)

    def exit(self, pid) -> "Program":
        # Delegation-only generators carry the Program annotation — the
        # repo-wide convention — which is how the analyzer classifies
        # them (there is no op yield to recognize).
        yield from self.unlock(pid)
        return pid

    def unlock(self, pid):
        yield self.x.write(None)
        yield self.b[pid].write(False)
