"""Seeded TMF005 violations: hard-wired delay bounds."""


class HardwiredLock:
    def entry(self, pid):
        yield self.x.write(pid)
        yield delay(1.5)  # line 7: literal bound
        yield ops.delay(0)  # line 8: literal zero
        value = yield self.x.read()
        if value != pid:
            yield Delay(-2)  # line 11: literal via unary minus
        yield ops.nap(0.005)  # line 12: a polling pause is held to the same rule
