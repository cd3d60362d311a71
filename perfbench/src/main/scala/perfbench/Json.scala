package perfbench

/** Minimal JSON writer for the benchmark's result line and trace files. */
object Json {

  def obj(fields: (String, Any)*): Map[String, Any] = scala.collection.immutable.ListMap(fields: _*)

  def render(v: Any): String = v match {
    case null              => "null"
    case s: String         => quote(s)
    case b: Boolean        => b.toString
    case i: Int            => i.toString
    case l: Long           => l.toString
    case d: Double         =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      // Full precision: the shortest string that reads back as `d`.
      java.lang.Double.toString(d).replace("E", "e")
    case m: Map[_, _]      => m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]   => xs.map(render).mkString("[", ",", "]")
    case other             => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
    sb.toString
  }
}
