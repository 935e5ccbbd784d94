"""Mixed extractive-abstractive summary editing with soft-label training."""

__version__ = "0.1.0"


def slots_eq(self, other):
    """`__eq__` of the records that code or tests compare: equal when `other`
    is of the same class and the two hold equal values in every slot."""
    if type(other) is not type(self):
        return NotImplemented
    return tuple(getattr(self, name) for name in self.__slots__) == tuple(
        getattr(other, name) for name in other.__slots__
    )
